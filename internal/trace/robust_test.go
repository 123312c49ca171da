package trace

import (
	"bufio"
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
	f.RankMap = mkGrammar([]int32{0, 1, 2, 3})
	f.Packed = packAll(f.Representatives())
	return f
}

// packedFile is grownFile with its timing sets packed as a writer
// before deflate packed them. So the file is magicPack with its calls
// stored by shape.
func packedFile(tb testing.TB) *File {
	tb.Helper()
	f := grownFile(tb)
	f.timing[0].pack, f.timing[1].pack = packAll(f.DurGrammars), packAll(f.IntGrammars)
	return f
}

// deflatedFile is grownFile as the writer of magicDeflate stored it,
// with both timing sets deflated: the File Read gives for such a file.
// No writer today stores a timing set deflated.
func deflatedFile(tb testing.TB) *File {
	tb.Helper()
	f := grownFile(tb)
	f.read = magicDeflate
	f.cst.raw = f.CST.Serialize()
	for i, gs := range [2][]sequitur.Serialized{f.DurGrammars, f.IntGrammars} {
		b := setBytes(gs)
		f.timing[i] = storedSet{z: deflateBody(b), raw: len(b)}
	}
	return f
}

// setBytes is what writeGrammarSet writes for gs.
func setBytes(gs []sequitur.Serialized) []byte {
	var b bytes.Buffer
	writeGrammarSet(&b, gs)
	return b.Bytes()
}

// bodyFile is grownFile with more CST entries than the final pass can
// shrink, which takes its body past minDeflatedBody: the writer stores
// it deflated under magicBody.
func bodyFile(tb testing.TB) *File {
	tb.Helper()
	f := grownFile(tb)
	for i := 0; i < 200; i++ {
		f.CST.Add([]byte(fmt.Sprintf("sigMPI_Send_%03d_peer", i)), int64(10*i))
	}
	return f
}

// grownFile is shapedFile grown until the final pass pays in every
// section: eight call representatives and eight grammars of each timing
// stream, each a common sequence changed in one place.
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
	f.RankMap = mkGrammar([]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
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
	f := deflatedFile(tb)
	good := f.timing[0]
	tooMany := make([]sequitur.Serialized, f.NumRanks+1)
	for i := range tooMany {
		tooMany[i] = f.DurGrammars[0]
	}
	out := map[string][]byte{}
	for name, damage := range map[string]func(s *storedSet){
		"bomb length":              func(s *storedSet) { s.raw = 1 << 40 },
		"length past ratio":        func(s *storedSet) { s.raw = maxInflateRatio*len(s.z) + 1 },
		"length long":              func(s *storedSet) { s.raw++ },
		"length short":             func(s *storedSet) { s.raw-- },
		"truncated":                func(s *storedSet) { s.z = s.z[:len(s.z)-5] },
		"trailing garbage":         func(s *storedSet) { s.z = append(slices.Clone(s.z), 0xde, 0xad) },
		"bytes past the set":       func(s *storedSet) { s.z, s.raw = deflateBody(append(setBytes(f.DurGrammars), 0)), good.raw+1 },
		"more grammars than ranks": func(s *storedSet) { b := setBytes(tooMany); s.z, s.raw = deflateBody(b), len(b) },
	} {
		f := deflatedFile(tb)
		damage(&f.timing[0])
		out[name] = serialize(tb, f)
	}
	return out
}

// hostileBodies are bodyFile with its deflated body damaged the ways a
// writer never damages it. Each must be refused, as hostileDeflates'.
func hostileBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	f := bodyFile(tb)
	sec, err := f.shaped()
	if err != nil {
		tb.Fatal(err)
	}
	raw, _ := f.writeBody(magicBody, sec)
	out := map[string][]byte{}
	for name, damage := range map[string]func(s *storedBody){
		"bomb length":                   func(s *storedBody) { s.raw = 1 << 40 },
		"length past ratio":             func(s *storedBody) { s.raw = maxInflateRatio*len(s.z) + 1 },
		"length long":                   func(s *storedBody) { s.raw++ },
		"length short":                  func(s *storedBody) { s.raw-- },
		"truncated":                     func(s *storedBody) { s.z = s.z[:len(s.z)-5] },
		"trailing garbage":              func(s *storedBody) { s.z = append(slices.Clone(s.z), 0xde, 0xad) },
		"bytes past the salvage":        func(s *storedBody) { s.z, s.raw = deflateBody(append(slices.Clone(raw), 0)), len(raw)+1 },
		"flipped bit":                   func(s *storedBody) { s.z = slices.Clone(s.z); s.z[len(s.z)/2] ^= 0x10 },
		"a raw body that is not a file": func(s *storedBody) { s.z, s.raw = deflateBody(raw[1:]), len(raw)-1 },
	} {
		f := bodyFile(tb)
		if st := f.BodyStorage(); st.Form != "deflated" {
			tb.Fatalf("bodyFile stores its body %+v", st)
		}
		damage(&f.deflated)
		out[name] = serialize(tb, f)
	}
	out["bytes past the stream"] = append(serialize(tb, f), 0)
	return out
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
		var buf bytes.Buffer
		if _, err := f.write(&buf, func() (*shapedSection, error) { return s, nil }); err != nil {
			tb.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	v1 := serialize(tb, f)
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

func TestReadExhaustiveTruncations(t *testing.T) {
	for _, build := range []func(testing.TB) *File{richFile, shapedFile, packedFile, deflatedFile, templatedFile, bodyFile} {
		truncations(t, build)
	}
}

func truncations(t *testing.T, build func(testing.TB) *File) {
	data := serialize(t, build(t))
	// The salvage section is an optional tail: cutting exactly where it
	// starts leaves a valid (salvage-less) file. Every other truncation
	// must be rejected.
	noSalvage := build(t)
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
	for _, f := range []*File{richFile(t), shapedFile(t), packedFile(t), deflatedFile(t), templatedFile(t), bodyFile(t)} {
		bitFlips(t, serialize(t, f))
	}
}

func bitFlips(t *testing.T, data []byte) {
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

// TestShapeSectionRoundTrip: a file stored by shape reads back to the
// grammars and Shape it was written from, and writes again to the same
// bytes.
func TestShapeSectionRoundTrip(t *testing.T) {
	f := shapedFile(t)
	data := serialize(t, f)
	if !bytes.HasPrefix(data, []byte(magicShapes)) {
		t.Fatalf("file starts %q", data[:len(magicShapes)])
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

// TestReadRejectsUnknownSelectors: a grammar set is raw (0) or a pack
// in the one alphabet its magic allows (1 under magic and magicShapes,
// 3 from magicPack on), the call section may also be stored by shape
// (2), but not under magic, and a timing set deflated (4), but only
// under magicDeflate and magicTemplates. From magicTemplates on the CST
// section is raw (0) or templated (1), and under magicBody the body is
// deflated (1). Any other selector is an error, not a raw set.
func TestReadRejectsUnknownSelectors(t *testing.T) {
	for m, refused := range map[string][]byte{
		magic:          {flagShapes, flagPacked, flagDeflated, 0xff},
		magicShapes:    {flagShapes, flagPacked, flagDeflated, 0xff},
		magicPack:      {flagHalves, flagShapes, flagDeflated, 0xff},
		magicDeflate:   {flagHalves, flagShapes, flagDeflated, 0xff},
		magicTemplates: {flagHalves, flagShapes, flagDeflated, 0xff},
		magicBody:      {flagHalves, flagShapes, flagDeflated, 0xff},
	} {
		for _, flag := range refused {
			br := byteReader{r: bufio.NewReader(bytes.NewReader([]byte{flag, 0})), magic: m}
			if _, _, err := br.readPackable(4); err == nil {
				t.Errorf("%s: grammar set selector %d accepted", m, flag)
			}
		}
		for _, flag := range []byte{cstTemplated + 1, 0xff} {
			br := byteReader{r: bufio.NewReader(bytes.NewReader([]byte{flag, 1, 0})), magic: m}
			if err := br.cstSection(new(File)); err == nil {
				t.Errorf("%s: CST selector %d accepted", m, flag)
			}
		}
		if deflatedSets(m) {
			continue
		}
		br := byteReader{r: bytes.NewReader([]byte{flagDeflated, 1, 1, 0}), magic: m}
		if _, err := br.timingSet(new(storedSet), 4); err == nil {
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
	deflated := serialize(t, deflatedFile(t))
	for _, m := range []string{magic, magicShapes, magicPack} {
		mut := slices.Clone(deflated)
		copy(mut, m)
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Errorf("deflated timing sets read under %s", m)
		}
	}
	for _, build := range []func(testing.TB) *File{richFile, shapedFile, packedFile, deflatedFile, templatedFile} {
		data := serialize(t, build(t))
		at := callSelectorAt(build(t))
		other := byte(flagPacked) // the pack selector of the other alphabet
		if !halves(string(data[:len(magic)])) {
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

// TestPackedFileRoundTrip: a file that stores a section by today's pack
// and none deflated is magicPack, may store its calls by shape, reads
// back to the File it was written from and writes again to the same
// bytes.
func TestPackedFileRoundTrip(t *testing.T) {
	f := packedFile(t)
	if f.stored(f.Representatives(), f.Packed) == nil || f.timing[0].pack == nil || f.timing[1].pack == nil {
		t.Fatal("packedFile stores a section raw")
	}
	data := serialize(t, f)
	if !bytes.HasPrefix(data, []byte(magicPack)) || data[callSelectorAt(f)] != flagShapes {
		t.Fatalf("file starts %q with call selector %d", data[:len(magicPack)], data[callSelectorAt(f)])
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []sequitur.Serialized) bool {
		return slices.EqualFunc(a, b, slices.Equal[sequitur.Serialized])
	}
	switch {
	case !same(got.Grammars, f.Grammars) || !slices.Equal(got.Shape, f.Shape):
		t.Fatal("call grammars changed")
	case !same(got.DurGrammars, f.DurGrammars) || !same(got.IntGrammars, f.IntGrammars):
		t.Fatal("timing grammars changed")
	case !slices.Equal(got.Packed, f.Packed) || !slices.Equal(got.timing[0].pack, f.timing[0].pack) || !slices.Equal(got.timing[1].pack, f.timing[1].pack):
		t.Fatal("packs changed")
	}
	if again := serialize(t, got); !bytes.Equal(again, data) {
		t.Fatal("a file read back writes other bytes")
	}
}

// TestDeflatedFileRoundTrip: a magicDeflate file, which stores its
// timing sets deflated and its calls by shape and packed, reads back to
// the File it was written from and writes again to the same bytes.
func TestDeflatedFileRoundTrip(t *testing.T) {
	f := deflatedFile(t)
	data := serialize(t, f)
	if !bytes.HasPrefix(data, []byte(magicDeflate)) || data[callSelectorAt(f)] != flagShapes || f.stored(f.Representatives(), f.Packed) == nil {
		t.Fatalf("file starts %q with call selector %d", data[:len(magic)], data[callSelectorAt(f)])
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b []sequitur.Serialized) bool {
		return slices.EqualFunc(a, b, slices.Equal[sequitur.Serialized])
	}
	if !same(got.Grammars, f.Grammars) || !same(got.DurGrammars, f.DurGrammars) || !same(got.IntGrammars, f.IntGrammars) {
		t.Fatal("grammars changed")
	}
	if got.timing[0].z == nil || got.timing[1].z == nil {
		t.Fatal("timing sets read back raw")
	}
	if st := got.BodyStorage(); st.Form != "raw" || st.Stored != len(data)-cstAt(f) {
		t.Fatalf("a %d-byte magicDeflate file reports its body %+v", len(data), st)
	}
	if again := serialize(t, got); !bytes.Equal(again, data) {
		t.Fatal("a file read back writes other bytes")
	}
}

// TestBodyFileRoundTrip: a File built in memory whose raw body reaches
// minDeflatedBody is magicBody, its body one deflate stream of a
// magicTemplates body, smaller than raw. It reads back to the File it
// was written from, reports the same storage and writes again to the
// same bytes. A body below the floor is stored raw.
func TestBodyFileRoundTrip(t *testing.T) {
	f := bodyFile(t)
	data := serialize(t, f)
	st := f.BodyStorage()
	switch {
	case !bytes.HasPrefix(data, []byte(magicBody)) || data[cstAt(f)] != bodyDeflated:
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
	raw, _ := f.writeBody(magicTemplates, sec)
	if z, err := inflate(f.deflated.z, st.Raw); err != nil || !bytes.Equal(z, raw) {
		t.Fatalf("the stream is not the magicTemplates body (%v)", err)
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
	case got.BodyStorage() != st || got.CSTStorage() != f.CSTStorage():
		t.Fatalf("read back as %+v, written %+v", got.BodyStorage(), st)
	}
	if again := serialize(t, got); !bytes.Equal(again, data) {
		t.Fatal("a file read back writes other bytes")
	}
	small := mkFileTB(t)
	if st, data := small.BodyStorage(), serialize(t, small); st.Form != "raw" || bytes.HasPrefix(data, []byte(magicBody)) || cstAt(small)+st.Stored != len(data) {
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
	}{{bodyFile(t), magicBody}, {templatedFile(t), magicTemplates}} {
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
	for name, data := range hostileDeflates(t) {
		grew, err := allocs(data)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew > 1<<17 {
			t.Errorf("%s: reading allocated %d bytes", name, grew)
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
// a grammar set and its pack by is the count writeGrammar writes, and
// varints reads the ints back, for ints of every varint length and sign.
func TestGrammarLenMatchesWrite(t *testing.T) {
	g := sequitur.Serialized{0, 1, -1, 63, -64, 64, -65, 1 << 13, -(1 << 13) - 1, 1 << 20, -(1 << 27), math.MaxInt32, math.MinInt32}
	g = append(g, make(sequitur.Serialized, 200)...) // lengths past one varint byte
	for n := 0; n <= len(g); n++ {
		var buf bytes.Buffer
		writeGrammar(&buf, g[:n])
		if got := grammarLen(g[:n]); got != buf.Len() {
			t.Fatalf("grammarLen of %d ints = %d, writeGrammar wrote %d bytes", n, got, buf.Len())
		}
		b := buf.Bytes()
		_, k := binary.Uvarint(b)
		if vs, at, err := varints[int32](b[k:]); err != nil || at != len(b)-k || !slices.Equal(vs, g[:n]) {
			t.Fatalf("%d ints read back as %v (%d of %d bytes, %v)", n, vs, at, len(b)-k, err)
		}
	}
}

// TestReadRejectsPackUnderOtherMagic: a pack is read in the alphabet
// the magic names, so a file whose magic claims the other one is
// refused. The fixtures hold packs of the older alphabet.
func TestReadRejectsPackUnderOtherMagic(t *testing.T) {
	data := serialize(t, packedFile(t))
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
		if f.Packed == nil && f.timing[0].pack == nil && f.timing[1].pack == nil {
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

// callSelectorAt is the offset of f's call-grammar selector byte: past
// the magic, the header and the CST section, with its selector if the
// CST is stored templated.
func callSelectorAt(f *File) int {
	s := f.storedCST()
	if s.templated != nil {
		return cstAt(f) + 1 + framedLen(len(s.templated))
	}
	return cstAt(f) + framedLen(len(s.raw))
}

func FuzzTraceRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(serialize(f, mkFileTB(f)))
	f.Add(serialize(f, richFile(f)))
	nanBase := richFile(f)
	nanBase.TimingBase = math.NaN()
	f.Add(serialize(f, nanBase))
	f.Add(serialize(f, shapedFile(f)))
	hostile := hostileShapes(f)
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	slices.Sort(names) // seed numbers stay put from run to run
	for _, name := range names {
		f.Add(hostile[name])
	}
	f.Add(serialize(f, packedFile(f)))
	// A valid magicDeflate file and four damaged ones, after the seeds
	// above so their numbers stay put.
	f.Add(serialize(f, deflatedFile(f)))
	deflates := hostileDeflates(f)
	for _, name := range []string{"truncated", "bomb length", "trailing garbage"} {
		f.Add(deflates[name])
	}
	flipped := deflatedFile(f)
	s := &flipped.timing[1]
	s.z = slices.Clone(s.z)
	s.z[len(s.z)/2] ^= 0x10
	f.Add(serialize(f, flipped))
	// A valid magicTemplates file and four damaged ones.
	f.Add(serialize(f, templatedFile(f)))
	templates := hostileTemplates(f)
	for _, name := range []string{"lifted values short", "run past the entries", "rebuilt duplicate", "template ids out of use order"} {
		f.Add(templates[name])
	}
	// A valid magicBody file and five damaged ones.
	f.Add(serialize(f, bodyFile(f)))
	bodies := hostileBodies(f)
	for _, name := range []string{"truncated", "bomb length", "length past ratio", "trailing garbage", "flipped bit"} {
		f.Add(bodies[name])
	}
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
