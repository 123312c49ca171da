package trace

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

func mkGrammar(seq []int32) sequitur.Serialized {
	g := sequitur.New()
	for _, v := range seq {
		g.Append(v)
	}
	return sequitur.Serialized(g.Serialize())
}

func mkFile(t *testing.T) *File {
	t.Helper()
	table := cst.New()
	table.Add([]byte("sigA"), 100)
	table.Add([]byte("sigB"), 200)
	table.Add([]byte("sigC"), 300)
	g0 := mkGrammar([]int32{0, 1, 0, 1, 2})
	g1 := mkGrammar([]int32{2, 2, 2})
	rankMap := []int32{0, 1, 0, 0}
	return &File{
		NumRanks: 4, TimingMode: TimingAggregated, TimingBase: 1.2,
		CST: table, Grammars: []sequitur.Serialized{g0, g1}, RankMap: rankMap,
	}
}

func TestRoundtrip(t *testing.T) {
	f := mkFile(t)
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != buf.Len() {
		t.Fatalf("WriteTo reported %d, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRanks != 4 || got.CST.Len() != 3 || len(got.Grammars) != 2 {
		t.Fatalf("shape mismatch: %+v", got)
	}
	for r := 0; r < 4; r++ {
		a, err1 := f.Terms(r)
		b, err2 := got.Terms(r)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(a) != len(b) {
			t.Fatalf("rank %d terms differ", r)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rank %d term %d differs", r, i)
			}
		}
	}
}

func TestPackedRoundtrip(t *testing.T) {
	f := mkFile(t)
	// Force a pack and make it profitable by duplicating rules.
	f.Packed = packAll(f.Grammars)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Grammars) != len(f.Grammars) {
		t.Fatalf("packed read produced %d grammars", len(got.Grammars))
	}
	for i := range f.Grammars {
		a := f.Grammars[i].Expand(0)
		b := got.Grammars[i].Expand(0)
		if len(a) != len(b) {
			t.Fatalf("grammar %d length mismatch", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("grammar %d differs at %d", i, j)
			}
		}
	}
}

// TestTermsErrors: each case damages a File of its own before the
// first read (a File is read-only once a read method has run), and the
// error must be the same on every later call and from every rank —
// the rank index is resolved, and fails, once per File.
func TestTermsErrors(t *testing.T) {
	f := mkFile(t)
	if _, err := f.Terms(-1); err == nil {
		t.Error("negative rank accepted")
	}
	if _, err := f.Terms(4); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := f.Terms(0); err != nil {
		t.Errorf("a rank-range error poisoned the file: %v", err)
	}
	for _, c := range []struct {
		name    string
		rankMap []int32
	}{
		{"dangling grammar reference", []int32{0, 1, 2, 0}}, // grammar 2 does not exist
		{"short rank map", []int32{0, 1}},
		{"long rank map", []int32{0, 1, 0, 0, 1}},
	} {
		f := mkFile(t)
		f.RankMap = c.rankMap
		_, first := f.Terms(0)
		if first == nil {
			t.Errorf("%s accepted", c.name)
			continue
		}
		for r := 0; r < f.NumRanks; r++ {
			if _, err := f.Terms(r); err == nil || err.Error() != first.Error() {
				t.Errorf("%s: rank %d: %v, first call said %v", c.name, r, err, first)
			}
		}
		if idx, err := f.GrammarIndex(); idx != nil || err == nil || err.Error() != first.Error() {
			t.Errorf("%s: GrammarIndex = %v, %v", c.name, idx, err)
		}
	}
}

// TestGrammarIndexResolvedOnce: every caller gets the same expansion.
func TestGrammarIndexResolvedOnce(t *testing.T) {
	f := mkFile(t)
	a, err := f.GrammarIndex()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{0, 1, 0, 0}; !slices.Equal(a, want) {
		t.Fatalf("GrammarIndex = %v, want %v", a, want)
	}
	if _, err := f.Terms(1); err != nil {
		t.Fatal(err)
	}
	b, _ := f.GrammarIndex()
	if &a[0] != &b[0] {
		t.Fatal("GrammarIndex expanded the rank map again")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("NOTAPILG rest"))); err == nil {
		t.Error("bad magic accepted")
	}
	f := mkFile(t)
	var buf bytes.Buffer
	f.WriteTo(&buf)
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated file accepted")
	}
}

func TestSaveLoad(t *testing.T) {
	f := mkFile(t)
	path := t.TempDir() + "/x.pilgrim"
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRanks != f.NumRanks {
		t.Fatal("load mismatch")
	}
	if _, err := Load(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSizeBytesMatchesWrite(t *testing.T) {
	f := mkFile(t)
	var buf bytes.Buffer
	f.WriteTo(&buf)
	if f.SizeBytes() != buf.Len() {
		t.Fatalf("SizeBytes %d != written %d", f.SizeBytes(), buf.Len())
	}
}

func TestSectionSizesConsistent(t *testing.T) {
	f := mkFile(t)
	cstB, cfgB, durB, intB := f.SectionSizes()
	if cstB <= 0 || cfgB <= 0 {
		t.Fatalf("sections: %d %d", cstB, cfgB)
	}
	// An empty timing set is its selector and count, an empty index
	// its selector, length and count.
	if durB != 5 || intB != 5 {
		t.Fatalf("empty timing sections take %d and %d bytes", durB, intB)
	}
	// The sections and a salvage section are the raw body, deflated or
	// not.
	for _, f := range []*File{mkFile(t), richFile(t), readTB(t, deflatedFile(t)), templatedFile(t), bodyFile(t)} {
		cstB, cfgB, durB, intB := f.SectionSizes()
		salvage := 0
		if f.Salvage != nil {
			salvage = 1 + framedLen(len(f.Salvage.serialize()))
		}
		if st := f.BodyStorage(); cstB+cfgB+durB+intB+salvage != st.Raw {
			t.Fatalf("sections %d %d %d %d and salvage %d, body %+v", cstB, cfgB, durB, intB, salvage, st)
		}
	}
	// A deflated timing set counts the bytes it is stored in, with its
	// selector and its index.
	data := deflatedFile(t)
	f = readTB(t, data)
	_, _, durB, intB = f.SectionSizes()
	for i, b := range []int{durB, intB} {
		d := findDeflatedSet(t, data, i)
		idx := intsLen([][]int32{f.DurIndex, f.IntIndex}[i])
		if b != 1+uvarintLen(uint64(d.raw))+framedLen(len(d.z))+idx {
			t.Fatalf("deflated section %d takes %d bytes, its stream %d", i, b, len(d.z))
		}
	}
}

// TestLaterCallsReadTheStoredForm: after the first write of a File
// built in memory whose body is raw, a later WriteTo allocates at most
// once, and SectionSizes and BodyStorage allocate nothing: each reads
// the form the first write laid out.
func TestLaterCallsReadTheStoredForm(t *testing.T) {
	f := shapedFile(t)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if st := f.BodyStorage(); st.Form != "raw" {
		t.Fatalf("shapedFile stores its body %+v", st)
	}
	for name, call := range map[string]func(){
		"WriteTo":      func() { f.WriteTo(io.Discard) },
		"SectionSizes": func() { f.SectionSizes() },
		"BodyStorage":  func() { f.BodyStorage() },
	} {
		want := 0.0
		if name == "WriteTo" {
			want = 1
		}
		if n := testing.AllocsPerRun(20, call); n > want {
			t.Errorf("a later %s allocates %v times", name, n)
		}
	}
}

func TestReadNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Random garbage with the right magic prefix, to reach the parsers.
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(400)
		data := make([]byte, n+8)
		copy(data, "PILGRIM1")
		rng.Read(data[8:])
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Read panicked on random input: %v", r)
				}
			}()
			Read(bytes.NewReader(data))
		}()
	}
}

func TestReadNeverPanicsOnTruncations(t *testing.T) {
	f := mkFile(t)
	f.Packed = packAll(f.Grammars)
	var buf bytes.Buffer
	f.WriteTo(&buf)
	data := buf.Bytes()
	for cut := 0; cut <= len(data); cut++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Read panicked at truncation %d: %v", cut, r)
				}
			}()
			Read(bytes.NewReader(data[:cut]))
		}()
	}
	// Single-byte corruptions of a valid file.
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Read panicked on corruption: %v", r)
				}
			}()
			if got, err := Read(bytes.NewReader(mut)); err == nil && got != nil {
				// Accepted: the decode surface must still be safe.
				for r := 0; r < got.NumRanks && r < 4; r++ {
					got.Terms(r)
				}
			}
		}()
	}
}

// packAll is the final Sequitur pass over gs: a Packer fed them in order.
func packAll(gs []sequitur.Serialized) sequitur.Serialized {
	p := sequitur.NewPacker()
	for _, g := range gs {
		p.Add(g)
	}
	return p.Finish()
}

// TestMagicVersionsOrderAsNumbers: the reader orders magics by the
// version each names, so a two-digit version orders after PILGRIM8,
// which as strings it does not, and a reader of it takes the CST and
// index selectors every magic from PILGRIM5 and PILGRIM7 on carries.
// Anything but "PILGRIM" and a decimal version without leading zeros
// is no version.
func TestMagicVersionsOrderAsNumbers(t *testing.T) {
	for _, c := range []struct {
		m string
		v int
	}{
		{magic, 1}, {magicTemplates, 5}, {magicIndexBody, 8}, {"PILGRIM9", 9}, {"PILGRIM10", 10}, {"PILGRIM123", 123},
		{"PILGRIM0", 0}, {"PILGRIM08", 0}, {"PILGRIM", 0}, {"PILGRIMx", 0}, {"PILGRIM1x", 0}, {"PILGRAM8", 0},
	} {
		if got := version(c.m); got != c.v {
			t.Errorf("version(%q) = %d, want %d", c.m, got, c.v)
		}
	}
	if "PILGRIM10" >= magicIndexBody {
		t.Fatal("the string order no longer misorders two-digit magics; this test lost its point")
	}
	ten := byteReader{v: version("PILGRIM10")}
	for _, m := range []string{magic, magicShapes, magicPack, magicDeflate, magicTemplates, magicBody, magicIndex, magicIndexBody} {
		if !ten.from(m) {
			t.Errorf("PILGRIM10 orders before %s", m)
		}
		if (byteReader{v: version(m)}).from("PILGRIM10") {
			t.Errorf("%s orders after PILGRIM10", m)
		}
	}

	tb := cst.New()
	tb.Add([]byte("sig"), 5)
	var sec bytes.Buffer
	(&File{CST: tb}).writeCST(&sec)
	writeIndex(&sec, rankMapIndex, []int32{0, 0, 0, 0}, 4, 1)
	br := byteReader{r: bytes.NewReader(sec.Bytes()), v: version("PILGRIM10")}
	var f File
	if _, err := br.cstSection(&f); err != nil || f.CST.Len() != 1 {
		t.Fatalf("a PILGRIM10 CST section read to %v, err %v", f.CST, err)
	}
	if idx, _, err := br.index(rankMapIndex, 4, 1); err != nil || !slices.Equal(idx, []int32{0, 0, 0, 0}) || br.r.Len() != 0 {
		t.Fatalf("a PILGRIM10 rank map read to %v, err %v, %d bytes left", idx, err, br.r.Len())
	}
}
