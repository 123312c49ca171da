package trace

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// Robustness of the reader against hostile or damaged inputs: Read
// (and the decode entry points behind it) must return an error on any
// corruption, never panic — a tool for salvaging traces from crashed
// runs will routinely be pointed at half-written files.

// richFile builds a trace exercising every optional section: packed
// grammar sets, lossy timing grammars with per-rank indices, and a
// trailing salvage section.
func richFile(tb testing.TB) *File {
	tb.Helper()
	table := cst.New()
	table.Add([]byte("sigA"), 100)
	table.Add([]byte("sigB"), 200)
	table.Add([]byte("sigC"), 300)
	g0 := mkGrammar([]int32{0, 1, 0, 1, 0, 1, 2, 2})
	g1 := mkGrammar([]int32{2, 2, 2, 0, 1, 0, 1})
	dur := mkGrammar([]int32{5, 5, 5, 5, 7, 7})
	intv := mkGrammar([]int32{3, 3, 3, 3, 3, 9})
	f := &File{
		NumRanks:   4,
		TimingMode: TimingLossy,
		TimingBase: 1.01,
		CST:        table,
		Grammars:   []sequitur.Serialized{g0, g1},
		RankMap:    mkGrammar([]int32{0, 1, 0, 0}),

		DurGrammars: []sequitur.Serialized{dur},
		DurIndex:    []int32{0, 0, 0, 0},
		IntGrammars: []sequitur.Serialized{intv},
		IntIndex:    []int32{0, 0, 0, 0},

		Salvage: &SalvageInfo{
			FailedRanks: []int32{2},
			Reason:      "injected crash",
			Calls:       []int64{8, 8, 3, 8},
		},
	}
	f.Packed = sequitur.Pack(f.Grammars)
	f.PackedDur = sequitur.Pack(f.DurGrammars)
	f.PackedInt = sequitur.Pack(f.IntGrammars)
	return f
}

func serialize(tb testing.TB, f *File) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readAndProbe runs Read and, when the input is accepted, drives the
// decode surface that a reader of the file would hit next. Every path
// must end in a value or an error — never a panic.
func readAndProbe(data []byte) {
	f, err := Read(bytes.NewReader(data))
	if err != nil || f == nil {
		return
	}
	f.GrammarIndex()
	for r := 0; r < f.NumRanks && r < 8; r++ {
		f.Terms(r)
	}
	f.SectionSizes()
	f.UncompressedEstimate()
}

func TestReadExhaustiveTruncations(t *testing.T) {
	full := richFile(t)
	data := serialize(t, full)
	// The salvage section is an optional tail: cutting exactly where it
	// starts leaves a valid (salvage-less) file. Every other truncation
	// must be rejected.
	noSalvage := richFile(t)
	noSalvage.Salvage = nil
	boundary := len(serialize(t, noSalvage))
	for cut := 0; cut <= len(data); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic at truncation %d/%d: %v", cut, len(data), r)
				}
			}()
			readAndProbe(data[:cut])
		}()
		if cut < len(data) && cut != boundary {
			if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
				t.Fatalf("truncation at %d/%d accepted", cut, len(data))
			}
		}
	}
}

func TestReadExhaustiveBitFlips(t *testing.T) {
	data := serialize(t, richFile(t))
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << bit
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic at byte %d bit %d: %v", pos, bit, r)
					}
				}()
				readAndProbe(mut)
			}()
		}
	}
}

// TestTermsRejectsOverflowingGrammar: a hand-crafted grammar whose
// expansion (2^40 repetitions of a rule that itself expands 2^40
// terminals) overflows int64. It passes structural validation, so it
// can arrive via a corrupt-but-parseable file; the expansion length
// must saturate rather than wrap negative under the size cap.
func TestTermsRejectsOverflowingGrammar(t *testing.T) {
	lo, hi := int32(0), int32(512) // exponent 2^40 split at bit 31
	huge := sequitur.Serialized{
		2,             // two rules
		1, -2, lo, hi, // rule 0: rule-1 ref, 2^40 times
		1, 0, lo, hi, // rule 1: terminal 0, 2^40 times
	}
	if err := huge.Validate(); err != nil {
		t.Fatalf("overflow grammar should be structurally valid: %v", err)
	}
	if n := huge.InputLen(); n != math.MaxInt64 {
		t.Fatalf("InputLen = %d, want saturation at MaxInt64", n)
	}
	f := mkFile(t)
	f.Grammars[0] = huge
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Terms panicked on overflowing grammar: %v", r)
		}
	}()
	if _, err := f.Terms(0); err == nil {
		t.Fatal("overflowing grammar accepted")
	}
}

// TestReadRejectsEmptyGrammars: a zero-length grammar is what a nil
// field serializes to and what no finalize produces; every expansion
// would index past it, so Read refuses the file.
func TestReadRejectsEmptyGrammars(t *testing.T) {
	for name, damage := range map[string]func(*File){
		"rank map": func(f *File) { f.RankMap = nil },
		"grammar":  func(f *File) { f.Grammars[1] = nil },
	} {
		f := mkFile(t)
		damage(f)
		if _, err := Read(bytes.NewReader(serialize(t, f))); err == nil {
			t.Errorf("file with an empty %s accepted", name)
		}
	}
}

// TestReadRejectsBadTimingBase: a lossy file whose base is not finite
// and greater than 1 is refused with a TimingBaseError; an aggregated
// file never uses its base and reads whatever it holds.
func TestReadRejectsBadTimingBase(t *testing.T) {
	for _, b := range []float64{math.NaN(), 1, 0.5, 0, -1.2, math.Inf(1)} {
		f := richFile(t)
		f.TimingBase = b
		_, err := Read(bytes.NewReader(serialize(t, f)))
		var be *TimingBaseError
		if !errors.As(err, &be) {
			t.Fatalf("lossy base %v: err %v, want a TimingBaseError", b, err)
		}
	}
	f := richFile(t)
	f.TimingBase = 1 + 0x1p-50 // valid; decoding it bins without a table
	if _, err := Read(bytes.NewReader(serialize(t, f))); err != nil {
		t.Fatal(err)
	}
	f = mkFile(t)
	f.TimingBase = math.NaN()
	if _, err := Read(bytes.NewReader(serialize(t, f))); err != nil {
		t.Fatalf("aggregated file with an unused NaN base: %v", err)
	}
}

func FuzzTraceRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(serialize(f, mkFileTB(f)))
	f.Add(serialize(f, richFile(f)))
	nanBase := richFile(f)
	nanBase.TimingBase = math.NaN()
	f.Add(serialize(f, nanBase))
	f.Fuzz(func(t *testing.T, data []byte) {
		readAndProbe(data)
	})
}

// mkFileTB is mkFile for any testing.TB (the fuzz seed corpus is
// built from an *testing.F).
func mkFileTB(tb testing.TB) *File {
	tb.Helper()
	table := cst.New()
	table.Add([]byte("sigA"), 100)
	table.Add([]byte("sigB"), 200)
	table.Add([]byte("sigC"), 300)
	return &File{
		NumRanks: 4, TimingMode: TimingAggregated, TimingBase: 1.2,
		CST:      table,
		Grammars: []sequitur.Serialized{mkGrammar([]int32{0, 1, 0, 1, 2}), mkGrammar([]int32{2, 2, 2})},
		RankMap:  mkGrammar([]int32{0, 1, 0, 0}),
	}
}
