package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// Robustness of the reader against hostile or damaged inputs: Read
// (and the decode entry points behind it) must return an error on any
// corruption, never panic — a tool for salvaging traces from crashed
// runs will routinely be pointed at half-written files.

// richFile builds a trace exercising every optional section: a packed
// call grammar set, lossy timing grammars with per-rank indices, and a
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
		RankMap:    []int32{0, 1, 0, 0},

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
	f.Packed = packAll(f.Grammars)
	return f
}

// shapedFile is richFile with grammars stored by shape: grammars 1
// and 2 have grammar 0's shape, and grammar 3 opens a shape of its own.
func shapedFile(tb testing.TB) *File {
	tb.Helper()
	f := richFile(tb)
	for _, s := range []string{"sigD", "sigE", "sigF", "sigG", "sigH", "sigI"} {
		f.CST.Add([]byte(s), 50)
	}
	f.Grammars = []sequitur.Serialized{
		mkGrammar([]int32{0, 1, 0, 1, 2}),
		mkGrammar([]int32{3, 4, 3, 4, 5}),
		mkGrammar([]int32{6, 7, 6, 7, 8}),
		mkGrammar([]int32{2, 2, 2}),
	}
	f.Shape = []int32{-1, 0, 0, -1}
	f.RankMap = []int32{0, 1, 2, 3}
	f.Packed = packAll(f.Representatives())
	return f
}

// fixture is the bytes of a checked-in file of an older writer, under
// testdata.
func fixture(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// packedFile is the v3 fixture: a magicPack file whose timing sets are
// both stored by today's pack.
func packedFile(tb testing.TB) []byte {
	return fixture(tb, filepath.Join("v3", "osu_alltoall_16x20_lossy.pilgrim"))
}

// deflatedFile is the lossy v4 fixture: a magicDeflate file whose
// timing sets are both stored deflated. No writer today stores a timing
// set deflated.
func deflatedFile(tb testing.TB) []byte {
	return fixture(tb, filepath.Join("v4", "cellular_16x60_lossy.pilgrim"))
}

// readTB is Read of data, which must succeed.
func readTB(tb testing.TB, data []byte) *File {
	tb.Helper()
	f, err := Read(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// setBytes is what writeGrammarSet writes for gs.
func setBytes(gs []sequitur.Serialized) []byte {
	var b bytes.Buffer
	writeGrammarSet(&b, gs)
	return b.Bytes()
}

// deflatedSet is a file's deflated timing set i (0 durations, 1
// intervals), found at the section ends Read records: where its section
// starts and ends in data, the raw length and stream it stores, and the
// index that follows it.
type deflatedSet struct {
	start, end int
	raw        int
	z, index   []byte
}

func findDeflatedSet(tb testing.TB, data []byte, i int) deflatedSet {
	tb.Helper()
	s := readTB(tb, data).form()
	d := deflatedSet{start: s.at + s.ends[i+1], end: s.at + s.ends[i+2]}
	sec := data[d.start:d.end]
	if sec[0] != flagDeflated {
		tb.Fatalf("timing set %d has selector %d", i, sec[0])
	}
	raw, k := binary.Uvarint(sec[1:])
	n, l := binary.Uvarint(sec[1+k:])
	at := 1 + k + l
	d.raw, d.z, d.index = int(raw), sec[at:at+int(n)], sec[at+int(n):]
	return d
}

// with is data with the set's raw length and stream replaced.
func (d deflatedSet) with(data []byte, raw int, z []byte) []byte {
	out := append(slices.Clone(data[:d.start]), flagDeflated)
	out = binary.AppendUvarint(out, uint64(raw))
	out = binary.AppendUvarint(out, uint64(len(z)))
	out = append(append(out, z...), d.index...)
	return append(out, data[d.end:]...)
}

// bodyFile is grownFile with more CST entries than the final pass can
// shrink, which takes its body past minDeflatedBody: the writer stores
// it deflated under magicIndexBody.
func bodyFile(tb testing.TB) *File {
	tb.Helper()
	f := grownFile(tb)
	for i := 0; i < 200; i++ {
		f.CST.Add([]byte(fmt.Sprintf("sigMPI_Send_%03d_peer", i)), int64(10*i))
	}
	return f
}

// grownFile is shapedFile grown: eight call representatives, whose
// pack pays, and eight grammars of each timing stream, each a common
// sequence changed in one place.
func grownFile(tb testing.TB) *File {
	tb.Helper()
	f := shapedFile(tb)
	rng := rand.New(rand.NewSource(3))
	base := make([]int32, 60)
	for i := range base {
		base[i] = int32(rng.Intn(6))
	}
	variants := func(first int32) []sequitur.Serialized {
		var gs []sequitur.Serialized
		for k := 0; k < 8; k++ {
			seq := slices.Clone(base)
			seq[5*k] = first + int32(k%3)
			gs = append(gs, mkGrammar(seq))
		}
		return gs
	}
	f.Grammars = variants(6)
	// Two more grammars of grammar 0's shape, naming other terminals.
	for _, perm := range [][]int32{{1, 0, 3, 2, 5, 4, 6}, {2, 3, 4, 5, 0, 1, 6}} {
		g, err := f.Grammars[0].Relabel(perm)
		if err != nil {
			tb.Fatal(err)
		}
		f.Grammars = append(f.Grammars, g)
	}
	f.NumRanks = len(f.Grammars)
	f.Shape = []int32{-1, -1, -1, -1, -1, -1, -1, -1, 0, 0}
	f.RankMap = []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	f.Packed = packAll(f.Representatives())
	f.DurGrammars, f.IntGrammars = variants(10), variants(20)
	f.DurIndex = []int32{0, 1, 2, 3, 4, 5, 6, 7, 0, 0}
	f.IntIndex = f.DurIndex
	f.Salvage.Calls = make([]int64, f.NumRanks)
	return f
}

// hostileDeflates are deflatedFile with its duration set damaged the
// ways a writer never damages it. Each must be refused: read anyway,
// it would allocate what the stream cannot fill, drop or ignore bytes,
// or hold grammars past the set's caps.
func hostileDeflates(tb testing.TB) map[string][]byte {
	tb.Helper()
	data := deflatedFile(tb)
	f := readTB(tb, data)
	d := findDeflatedSet(tb, data, 0)
	tooMany := make([]sequitur.Serialized, f.NumRanks+1)
	for i := range tooMany {
		tooMany[i] = f.DurGrammars[0]
	}
	past := append(setBytes(f.DurGrammars), 0)
	out := map[string][]byte{}
	for name, s := range map[string]struct {
		raw int
		z   []byte
	}{
		"bomb length":              {1 << 40, d.z},
		"length past ratio":        {maxInflateRatio*len(d.z) + 1, d.z},
		"length long":              {d.raw + 1, d.z},
		"length short":             {d.raw - 1, d.z},
		"truncated":                {d.raw, d.z[:len(d.z)-5]},
		"trailing garbage":         {d.raw, append(slices.Clone(d.z), 0xde, 0xad)},
		"bytes past the set":       {len(past), deflateBody(past)},
		"more grammars than ranks": {len(setBytes(tooMany)), deflateBody(setBytes(tooMany))},
	} {
		out[name] = d.with(data, s.raw, s.z)
	}
	return out
}

// withBody is the bytes data of a file whose body is deflated with the
// raw length and stream of its body replaced.
func withBody(tb testing.TB, data []byte, raw int, z []byte) []byte {
	tb.Helper()
	at := readTB(tb, data).form().at
	out := append(slices.Clone(data[:at]), bodyDeflated)
	out = binary.AppendUvarint(out, uint64(raw))
	out = binary.AppendUvarint(out, uint64(len(z)))
	return append(out, z...)
}

// hostileBodies are bodyFile with its deflated body damaged the ways a
// writer never damages it. Each must be refused, as hostileDeflates'.
func hostileBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	data := serialize(tb, bodyFile(tb))
	if !bytes.HasPrefix(data, []byte(magicIndexBody)) {
		tb.Fatalf("bodyFile starts %q", data[:len(magic)])
	}
	f := readTB(tb, data)
	raw := rawBody(f)
	z := deflateBody(raw)
	out := map[string][]byte{}
	for name, s := range map[string]struct {
		raw int
		z   []byte
	}{
		"bomb length":                   {1 << 40, z},
		"length past ratio":             {maxInflateRatio*len(z) + 1, z},
		"length long":                   {len(raw) + 1, z},
		"length short":                  {len(raw) - 1, z},
		"truncated":                     {len(raw), z[:len(z)-5]},
		"trailing garbage":              {len(raw), append(slices.Clone(z), 0xde, 0xad)},
		"bytes past the salvage":        {len(raw) + 1, deflateBody(append(slices.Clone(raw), 0))},
		"flipped bit":                   {len(raw), flipMid(z)},
		"a raw body that is not a file": {len(raw) - 1, deflateBody(raw[1:])},
	} {
		out[name] = withBody(tb, data, s.raw, s.z)
	}
	// The duration index, found at the section ends Read records, stored
	// plain with its first int 2^32 past what it was: an int32 would
	// wrap back to it.
	wide := binary.AppendUvarint(nil, uint64(len(f.DurIndex)))
	for i, v := range f.DurIndex {
		if i == 0 {
			wide = binary.AppendVarint(wide, int64(v)+1<<32)
		} else {
			wide = binary.AppendVarint(wide, int64(v))
		}
	}
	end := f.form().ends[2]
	start := end - f.IndexStorage()[durIndex].Bytes
	plain := append([]byte{indexPlain}, binary.AppendUvarint(nil, uint64(len(wide)))...)
	past := slices.Concat(raw[:start], plain, wide, raw[end:])
	out["index int past int32"] = withBody(tb, data, len(past), deflateBody(past))
	out["bytes past the stream"] = append(slices.Clone(data), 0)
	return out
}

// flipMid is b with a bit of its middle byte flipped.
func flipMid(b []byte) []byte {
	b = slices.Clone(b)
	b[len(b)/2] ^= 0x10
	return b
}

// hostileShapes are shapedFile with its call section damaged the ways a
// writer never damages it. Each must be refused: read anyway, it would
// name a rule where a terminal belongs, take terminals past or short of
// a shape's, follow a shape not yet opened, store a grammar under a
// shape it does not have, or parse a section its magic does not allow.
func hostileShapes(tb testing.TB) map[string][]byte {
	tb.Helper()
	f := shapedFile(tb)
	sec, err := f.shaped()
	if err != nil || sec == nil {
		tb.Fatalf("shapedFile has no shape section: %v", err)
	}
	// Grammar 0's vector is [2 0 1], its start rule naming terminal 2
	// first; grammars 1 and 2 each step it by 3.
	rows := func(d ...int32) *shapedSection {
		return &shapedSection{reps: sec.reps, runs: sec.runs, vecEnc: vecRows, vecs: d}
	}
	runs := func(shape ...int32) *shapedSection {
		return &shapedSection{reps: sec.reps, runs: rle(shape), vecEnc: sec.vecEnc, vecs: sec.vecs}
	}
	out := map[string][]byte{}
	for name, s := range map[string]*shapedSection{
		"negative vector entry":         rows(-3, 3, 3, 3, 3, 3),
		"short vector":                  rows(3, 3, 3, 3, 3),
		"long vector":                   rows(3, 3, 3, 3, 3, 3, 3),
		"shape not yet opened":          runs(-1, 2, -1, 0),
		"shape of a non-representative": runs(-1, 0, 1, -1),
		"repeated terminal":             rows(3, 3, 2, 3, 3, 4),
		"unknown vector layout":         {reps: sec.reps, runs: sec.runs, vecEnc: 3, vecs: sec.vecs},
	} {
		out[name] = f.lay(s).data
	}
	// The v4 fixture stores its calls by shape under magicShapes.
	v1 := fixture(tb, filepath.Join("v4", "cg_64x4.pilgrim"))
	if !bytes.HasPrefix(v1, []byte(magicShapes)) || v1[callSelectorAt(readTB(tb, v1))] != flagShapes {
		tb.Fatal("the v4 cg fixture does not store its calls by shape")
	}
	copy(v1, magic)
	out["shape section under "+magic] = v1
	return out
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
	f.BodyStorage()
	f.UncompressedEstimate()
}

// inputs are a file of every stored form the reader knows: files the
// writer stores with every optional section, by shape, with a templated
// CST, with a deflated body and with a rank map kept as a grammar, and
// the older writers' packed and deflated timing sets.
func inputs(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, build := range []func(testing.TB) *File{richFile, shapedFile, templatedFile, bodyFile, periodicFile} {
		out = append(out, serialize(tb, build(tb)))
	}
	return append(out, packedFile(tb), deflatedFile(tb))
}

func TestReadExhaustiveTruncations(t *testing.T) {
	for _, data := range inputs(t) {
		truncations(t, data)
	}
}

func truncations(t *testing.T, data []byte) {
	// The salvage section is an optional tail: cutting a raw body
	// exactly where it starts leaves a valid (salvage-less) file. Every
	// other truncation must be rejected.
	boundary := -1
	if f := readTB(t, data); f.Salvage != nil && f.BodyStorage().Form == "raw" {
		boundary = f.form().at + f.form().ends[3]
	}
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
	for _, data := range inputs(t) {
		from := 0
		if bytes.HasPrefix(data, []byte(magicDeflate)) {
			// The v4 fixture's 5.8 KB CST is stored as the v3
			// fixture's is: its bits are flipped from the calls on.
			from = callSelectorAt(readTB(t, data))
		}
		bitFlips(t, data, from)
	}
}

// bitFlips reads data with each bit from byte from on flipped.
func bitFlips(t *testing.T, data []byte, from int) {
	for pos := from; pos < len(data); pos++ {
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
// file never uses its base and reads whatever it holds. A file of a
// timing mode neither aggregated nor lossy is refused.
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
	f = mkFile(t)
	f.TimingMode = 5
	if _, err := Read(bytes.NewReader(serialize(t, f))); err == nil {
		t.Fatal("a file of timing mode 5 read")
	}
}

// TestShapeSectionRoundTrip: a file stored by shape is magicIndex
// with its calls behind flagShapes, reads back to the grammars and Shape
// it was written from, and writes again to the same bytes.
func TestShapeSectionRoundTrip(t *testing.T) {
	f := shapedFile(t)
	data := serialize(t, f)
	if !bytes.HasPrefix(data, []byte(magicIndex)) || data[callSelectorAt(f)] != flagShapes {
		t.Fatalf("file starts %q with call selector %d", data[:len(magic)], data[callSelectorAt(f)])
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got.Grammars, f.Grammars, slices.Equal[sequitur.Serialized]) || !slices.Equal(got.Shape, f.Shape) {
		t.Fatalf("read back grammars %v shape %v, wrote %v shape %v", got.Grammars, got.Shape, f.Grammars, f.Shape)
	}
	if again := serialize(t, got); !bytes.Equal(again, data) {
		t.Fatal("a file read back writes other bytes")
	}
}

// TestReadRejectsHostileShapes: each damaged shape section is an error.
func TestReadRejectsHostileShapes(t *testing.T) {
	for name, data := range hostileShapes(t) {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWriteRejectsBadShape: a Shape that does not describe Grammars
// fails the write instead of storing grammars it would not give back.
func TestWriteRejectsBadShape(t *testing.T) {
	for name, shape := range map[string][]int32{
		"short":                {-1, 0, 0},
		"forward reference":    {-1, 2, -1, -1},
		"another shape":        {-1, 0, 0, 0},
		"non-representative":   {-1, 0, 1, -1},
		"not a representative": {-2, 0, 0, -1},
	} {
		f := shapedFile(t)
		f.Shape = shape
		if _, err := f.WriteTo(io.Discard); err == nil {
			t.Errorf("%s shape %v written", name, shape)
		}
	}
}

// TestShapeVecs: a File that carries the vector Shape gives each
// grammar writes the bytes it writes without them, and one whose
// vectors do not relabel the grammar's representative to it, or name a
// terminal twice, or are not one per grammar, is refused.
func TestShapeVecs(t *testing.T) {
	vecs := func(f *File) [][]int32 {
		out := make([][]int32, len(f.Grammars))
		for j, g := range f.Grammars {
			_, out[j] = g.Shape()
		}
		return out
	}
	f := shapedFile(t)
	f.ShapeVecs = vecs(f)
	if got, want := serialize(t, f), serialize(t, shapedFile(t)); !bytes.Equal(got, want) {
		t.Fatalf("with shape vectors %d bytes, without %d", len(got), len(want))
	}
	for name, bad := range map[string]func(f *File){
		"another terminal": func(f *File) { f.ShapeVecs[1] = []int32{3, 4, 6} },
		"too short":        func(f *File) { f.ShapeVecs[1] = f.ShapeVecs[1][:2] },
		"too long":         func(f *File) { f.ShapeVecs[1] = append(f.ShapeVecs[1], 9) },
		"one per grammar":  func(f *File) { f.ShapeVecs = f.ShapeVecs[:3] },
		// Grammar 1 is not of grammar 0's shape, though relabeling that
		// shape by a vector naming 3 twice gives it.
		"a terminal twice": func(f *File) {
			shape, _ := f.Grammars[0].Shape()
			f.ShapeVecs[1] = []int32{3, 3, 5}
			f.Grammars[1], _ = shape.Relabel(f.ShapeVecs[1])
		},
	} {
		f := shapedFile(t)
		f.ShapeVecs = vecs(f)
		bad(f)
		if _, err := f.WriteTo(io.Discard); err == nil {
			t.Errorf("%s: written", name)
		}
	}
}

// TestReadRejectsUnknownSelectors: a grammar set is raw (0) or a pack
// in the one alphabet its magic allows (1 under magic and magicShapes,
// 3 from magicPack on), the call section may also be stored by shape
// (2), but not under magic, and a timing set deflated (4), but only
// under magicDeflate and magicTemplates. From magicTemplates on the CST
// section is raw (0) or templated (1), and under magicBody and
// magicIndexBody the body is deflated (1). Any other selector is an
// error, not a raw set. The files of the older magics are the v1 to v4
// fixtures.
func TestReadRejectsUnknownSelectors(t *testing.T) {
	for m, refused := range map[string][]byte{
		magic:          {flagShapes, flagPacked, flagDeflated, 0xff},
		magicShapes:    {flagShapes, flagPacked, flagDeflated, 0xff},
		magicPack:      {flagHalves, flagShapes, flagDeflated, 0xff},
		magicDeflate:   {flagHalves, flagShapes, flagDeflated, 0xff},
		magicTemplates: {flagHalves, flagShapes, flagDeflated, 0xff},
		magicBody:      {flagHalves, flagShapes, flagDeflated, 0xff},
		magicIndex:     {flagHalves, flagShapes, flagDeflated, 0xff},
		magicIndexBody: {flagHalves, flagShapes, flagDeflated, 0xff},
	} {
		for _, flag := range refused {
			br := byteReader{r: bytes.NewReader([]byte{flag, 0}), v: version(m)}
			if _, _, err := br.readPackable(4); err == nil {
				t.Errorf("%s: grammar set selector %d accepted", m, flag)
			}
		}
		for _, flag := range []byte{cstTemplated + 1, 0xff} {
			br := byteReader{r: bytes.NewReader([]byte{flag, 1, 0}), v: version(m)}
			if _, err := br.cstSection(new(File)); err == nil {
				t.Errorf("%s: CST selector %d accepted", m, flag)
			}
		}
		if deflatedSets(version(m)) {
			continue
		}
		br := byteReader{r: bytes.NewReader([]byte{flagDeflated, 1, 1, 0}), v: version(m)}
		if _, err := br.timingSet(4); err == nil {
			t.Errorf("%s: deflated timing set accepted", m)
		}
	}
	body := serialize(t, bodyFile(t))
	for _, sel := range []byte{0, bodyDeflated + 1, 0xff} {
		mut := slices.Clone(body)
		mut[cstAt(bodyFile(t))] = sel
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Errorf("body selector %d accepted", sel)
		}
	}
	deflated := deflatedFile(t)
	for _, m := range []string{magic, magicShapes, magicPack} {
		mut := slices.Clone(deflated)
		copy(mut, m)
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Errorf("deflated timing sets read under %s", m)
		}
	}
	files := [][]byte{
		serialize(t, richFile(t)), serialize(t, shapedFile(t)), serialize(t, templatedFile(t)),
		fixture(t, filepath.Join("v1", "stencil2d_16x40.pilgrim")), fixture(t, filepath.Join("v2", "cellular_64x4.pilgrim")),
		packedFile(t), deflatedFile(t), fixture(t, filepath.Join("v4", "cg_64x4.pilgrim")),
	}
	for _, data := range files {
		at := callSelectorAt(readTB(t, data))
		other := byte(flagPacked) // the pack selector of the other alphabet
		if !halves(version(string(data[:len(magic)]))) {
			other = flagHalves
		}
		for _, flag := range []byte{other, flagDeflated, 0x80} {
			mut := slices.Clone(data)
			mut[at] = flag
			if _, err := Read(bytes.NewReader(mut)); err == nil {
				t.Errorf("%s file: call selector %d accepted", data[:len(magic)], flag)
			}
		}
	}
}

// TestPackedFileRoundTrip: a magicPack file that stores its timing sets
// by today's pack reads with both packs, and writes again to its own
// bytes, which read back to the same grammars.
func TestPackedFileRoundTrip(t *testing.T) {
	data := packedFile(t)
	if !bytes.HasPrefix(data, []byte(magicPack)) {
		t.Fatalf("file starts %q", data[:len(magic)])
	}
	f := readTB(t, data)
	if dur, intv := TimingForms(f); dur != "packed" || intv != "packed" {
		t.Fatalf("the timing sets are stored %s and %s", dur, intv)
	}
	again := serialize(t, f)
	if !bytes.Equal(again, data) {
		t.Fatal("a file read back writes other bytes")
	}
	got := readTB(t, again)
	same := func(a, b []sequitur.Serialized) bool {
		return slices.EqualFunc(a, b, slices.Equal[sequitur.Serialized])
	}
	switch {
	case !same(got.Grammars, f.Grammars) || !slices.Equal(got.Shape, f.Shape) || !slices.Equal(got.Packed, f.Packed):
		t.Fatal("call grammars changed")
	case !same(got.DurGrammars, f.DurGrammars) || !same(got.IntGrammars, f.IntGrammars):
		t.Fatal("timing grammars changed")
	}
}

// TestDeflatedFileRoundTrip: a magicDeflate file, which stores its
// timing sets deflated, reads with both, reports its body raw, and
// writes again to its own bytes, which read back to the same grammars.
func TestDeflatedFileRoundTrip(t *testing.T) {
	data := deflatedFile(t)
	f := readTB(t, data)
	if !bytes.HasPrefix(data, []byte(magicDeflate)) {
		t.Fatalf("file starts %q", data[:len(magic)])
	}
	if dur, intv := TimingForms(f); dur != "deflated" || intv != "deflated" {
		t.Fatalf("the timing sets are stored %s and %s", dur, intv)
	}
	if st := f.BodyStorage(); st.Form != "raw" || st.Stored != len(data)-cstAt(f) {
		t.Fatalf("a %d-byte magicDeflate file reports its body %+v", len(data), st)
	}
	again := serialize(t, f)
	if !bytes.Equal(again, data) {
		t.Fatal("a file read back writes other bytes")
	}
	got := readTB(t, again)
	same := func(a, b []sequitur.Serialized) bool {
		return slices.EqualFunc(a, b, slices.Equal[sequitur.Serialized])
	}
	if !same(got.Grammars, f.Grammars) || !same(got.DurGrammars, f.DurGrammars) || !same(got.IntGrammars, f.IntGrammars) {
		t.Fatal("grammars changed")
	}
}

// TestBodyFileRoundTrip: a File built in memory whose raw body reaches
// minDeflatedBody is magicIndexBody, its body one deflate stream of a
// magicIndex body, smaller than raw. It reads back to the File it
// was written from, reports the same storage and writes again to the
// same bytes. A body below the floor is stored raw.
func TestBodyFileRoundTrip(t *testing.T) {
	f := bodyFile(t)
	data := serialize(t, f)
	st := f.BodyStorage()
	switch {
	case !bytes.HasPrefix(data, []byte(magicIndexBody)) || data[cstAt(f)] != bodyDeflated:
		t.Fatalf("file starts %q with body selector %d", data[:len(magic)], data[cstAt(f)])
	case st.Form != "deflated" || st.Raw < minDeflatedBody || st.Stored >= st.Raw:
		t.Fatalf("body stored %+v", st)
	case cstAt(f)+st.Stored != len(data) || f.SizeBytes() != len(data):
		t.Fatalf("body stored in %d bytes, SizeBytes %d, file %d", st.Stored, f.SizeBytes(), len(data))
	}
	sec, err := f.shaped()
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	f.writeBody(&raw, sec, new(form))
	if !bytes.Equal(rawBody(f), raw.Bytes()) {
		t.Fatal("the stream is not the magicIndex body")
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []sequitur.Serialized) bool {
		return slices.EqualFunc(a, b, slices.Equal[sequitur.Serialized])
	}
	switch {
	case !same(got.Grammars, f.Grammars) || !slices.Equal(got.Shape, f.Shape) || !slices.Equal(got.RankMap, f.RankMap):
		t.Fatal("call grammars changed")
	case !same(got.DurGrammars, f.DurGrammars) || !same(got.IntGrammars, f.IntGrammars):
		t.Fatal("timing grammars changed")
	case !bytes.Equal(got.CST.Serialize(), f.CST.Serialize()) || got.Salvage.Reason != f.Salvage.Reason:
		t.Fatal("CST or salvage changed")
	case got.BodyStorage() != st || got.CSTStorage() != f.CSTStorage() || got.IndexStorage() != f.IndexStorage():
		t.Fatalf("read back as %+v, written %+v", got.BodyStorage(), st)
	}
	if again := serialize(t, got); !bytes.Equal(again, data) {
		t.Fatal("a file read back writes other bytes")
	}
	small := mkFileTB(t)
	if st, data := small.BodyStorage(), serialize(t, small); st.Form != "raw" || !bytes.HasPrefix(data, []byte(magicIndex)) || cstAt(small)+st.Stored != len(data) {
		t.Fatalf("a %d-byte file starting %q reports its body %+v", len(data), data[:len(magic)], st)
	}
}

// TestConcurrentWritesDeflateOnce: writes of one File from several
// goroutines at once share the first one's deflate, and its CST
// encoding, and give one set of bytes (run under -race).
func TestConcurrentWritesDeflateOnce(t *testing.T) {
	for _, c := range []struct {
		f     *File
		magic string
	}{{bodyFile(t), magicIndexBody}, {templatedFile(t), magicIndex}} {
		outs := make([][]byte, 4)
		var wg sync.WaitGroup
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.f.BodyStorage()
				c.f.CSTStorage()
				c.f.SectionSizes()
				var b bytes.Buffer
				if _, err := c.f.WriteTo(&b); err != nil {
					t.Error(err)
				}
				outs[i] = b.Bytes()
			}()
		}
		wg.Wait()
		for _, b := range outs[1:] {
			if !bytes.Equal(b, outs[0]) || !bytes.HasPrefix(b, []byte(c.magic)) {
				t.Fatalf("concurrent writes differ: %d vs %d bytes", len(b), len(outs[0]))
			}
		}
	}
}

// TestReadRejectsHostileDeflate: each damaged deflated set or body is
// an error, and a raw length the stream cannot fill is refused before
// the buffer it claims is allocated.
func TestReadRejectsHostileDeflate(t *testing.T) {
	allocs := func(data []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	// Up to the damaged set, reading allocates what the fixture's CST
	// and calls take, as reading the file cut where the set starts does;
	// the set may take 128 KB more.
	data := deflatedFile(t)
	before, _ := allocs(data[:findDeflatedSet(t, data, 0).start])
	for name, data := range hostileDeflates(t) {
		grew, err := allocs(data)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew > before+1<<17 {
			t.Errorf("%s: reading allocated %d bytes, %d up to the set", name, grew, before)
		}
	}
	// A damaged body may be parsed whole before it is refused.
	whole, err := allocs(serialize(t, bodyFile(t)))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range hostileBodies(t) {
		grew, err := allocs(data)
		if err == nil {
			t.Errorf("body %s: accepted", name)
		}
		if grew > whole+1<<17 {
			t.Errorf("body %s: reading allocated %d bytes, %d for the intact file", name, grew, whole)
		}
	}
}

// TestGrammarLenMatchesWrite: the byte count the writer chooses between
// a grammar set and its pack by is the count writeInts writes, and ints
// reads the ints back, for ints of every varint length and sign.
func TestGrammarLenMatchesWrite(t *testing.T) {
	g := sequitur.Serialized{0, 1, -1, 63, -64, 64, -65, 1 << 13, -(1 << 13) - 1, 1 << 20, -(1 << 27), math.MaxInt32, math.MinInt32}
	g = append(g, make(sequitur.Serialized, 200)...) // lengths past one varint byte
	for n := 0; n <= len(g); n++ {
		var buf bytes.Buffer
		writeInts(&buf, g[:n])
		if got := intsLen(g[:n]); got != buf.Len() {
			t.Fatalf("intsLen of %d ints = %d, writeInts wrote %d bytes", n, got, buf.Len())
		}
		if vs, err := (byteReader{r: bytes.NewReader(buf.Bytes())}).ints(); err != nil || !slices.Equal(vs, g[:n]) {
			t.Fatalf("%d ints read back as %v (%v)", n, vs, err)
		}
	}
}

// TestReadRejectsPackUnderOtherMagic: a pack is read in the alphabet
// the magic names, so a file whose magic claims the other one is
// refused. The v3 fixture holds packs of today's alphabet, the v1 and
// v2 fixtures packs of the older one.
func TestReadRejectsPackUnderOtherMagic(t *testing.T) {
	data := packedFile(t)
	for _, m := range []string{magic, magicShapes} {
		mut := slices.Clone(data)
		copy(mut, m)
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Errorf("today's packs read under %s", m)
		}
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "v[12]", "*.pilgrim"))
	if err != nil {
		t.Fatal(err)
	}
	packed := 0
	for _, path := range paths {
		old, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Read(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if dur, intv := TimingForms(f); f.Packed == nil && dur != "packed" && intv != "packed" {
			continue
		}
		packed++
		copy(old, magicPack)
		if _, err := Read(bytes.NewReader(old)); err == nil {
			t.Errorf("%s: older packs read under %s", path, magicPack)
		}
	}
	if packed < 2 {
		t.Fatalf("only %d fixtures hold a pack", packed)
	}
}

// callSelectorAt is the offset of f's call-grammar selector byte in a
// file whose body is raw: past the magic, the header and the CST
// section.
func callSelectorAt(f *File) int { return f.form().at + f.form().ends[0] }

// traceReadSeeds are FuzzTraceRead's seeds: valid files of every
// stored form and magic, and damaged ones.
func traceReadSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	add := func(data []byte) { seeds = append(seeds, data) }
	add([]byte{})
	add([]byte(magic))
	add(serialize(tb, mkFileTB(tb)))
	add(serialize(tb, richFile(tb)))
	nanBase := richFile(tb)
	nanBase.TimingBase = math.NaN()
	add(serialize(tb, nanBase))
	add(serialize(tb, shapedFile(tb)))
	hostile := hostileShapes(tb)
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	slices.Sort(names) // seed numbers stay put from run to run
	for _, name := range names {
		add(hostile[name])
	}
	add(packedFile(tb))
	// A valid magicDeflate file and four damaged ones, after the seeds
	// above so their numbers stay put.
	deflated := deflatedFile(tb)
	add(deflated)
	deflates := hostileDeflates(tb)
	for _, name := range []string{"truncated", "bomb length", "trailing garbage"} {
		add(deflates[name])
	}
	d := findDeflatedSet(tb, deflated, 1)
	add(d.with(deflated, d.raw, flipMid(d.z)))
	// A valid file with a templated CST and four damaged ones.
	add(serialize(tb, templatedFile(tb)))
	templates := hostileTemplates(tb)
	for _, name := range []string{"lifted values short", "run past the entries", "rebuilt duplicate", "template ids out of use order"} {
		add(templates[name])
	}
	// A valid file with a deflated body and five damaged ones.
	add(serialize(tb, bodyFile(tb)))
	bodies := hostileBodies(tb)
	for _, name := range []string{"truncated", "bomb length", "length past ratio", "trailing garbage", "flipped bit"} {
		add(bodies[name])
	}
	// A magic file and a magicShapes file that stores its calls by shape.
	add(fixture(tb, filepath.Join("v1", "distinct_shapes.pilgrim")))
	add(fixture(tb, filepath.Join("v4", "cg_64x4.pilgrim")))
	// A rank map stored as a grammar and one stored as a column under
	// magicIndex, and four damaged index sections.
	add(serialize(tb, periodicFile(tb)))
	add(serialize(tb, indexFile(tb, grid(6, 6))))
	indices := hostileIndices(tb)
	for _, name := range []string{"rank map: run past the ranks", "rank map: sum past the grammars", "rank map: selector past every stride", "columns under " + magicTemplates} {
		add(indices[name])
	}
	return seeds
}

func FuzzTraceRead(f *testing.F) {
	for _, data := range traceReadSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		readAndProbe(data)
		if file, err := Read(bytes.NewReader(data)); err == nil {
			if err := diffDecodedSigs(file); err != nil {
				t.Fatal(err)
			}
		}
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
		RankMap:  []int32{0, 1, 0, 0},
	}
}
