package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/sig"
)

// splitSig is an MPI_Comm_split signature of comm 1 into newcomm: its
// color absolute and its key relative, the two values a template lifts.
func splitSig(color, key, newcomm int64) []byte {
	b := binary.AppendUvarint(nil, uint64(mpispec.FCommSplit))
	b = binary.AppendVarint(b, 1)
	b = binary.AppendVarint(append(b, 1), color) // selAbs
	b = binary.AppendVarint(append(b, 0), key)   // selRel
	return binary.AppendVarint(b, newcomm)
}

// splitTemplate is splitSig's template: the signature without the
// color's and key's varints.
func splitTemplate(newcomm int64) string {
	b := binary.AppendUvarint(nil, uint64(mpispec.FCommSplit))
	b = append(binary.AppendVarint(b, 1), 1, 0)
	return string(binary.AppendVarint(b, newcomm))
}

// templatedFile is richFile with a CST of sixteen Comm_split entries,
// four ranks each into one of four communicators, which the writer
// stores templated.
func templatedFile(tb testing.TB) *File {
	tb.Helper()
	f := richFile(tb)
	f.CST = cst.New()
	for r := int64(0); r < 16; r++ {
		f.CST.Add(splitSig(r/4, r%4-1, 2+r/4), 100+r)
	}
	return f
}

// tmplSection is a templated CST section by its parts, each column with
// its layout byte.
type tmplSection struct {
	tmpls []string
	n     int
	enc   [4]byte
	cols  [4][]int64 // template ids, lifted values, counts, average durations
}

func (s tmplSection) bytes() []byte {
	b := binary.AppendUvarint(nil, uint64(len(s.tmpls)))
	for _, t := range s.tmpls {
		b = append(binary.AppendUvarint(b, uint64(len(t))), t...)
	}
	b = binary.AppendUvarint(b, uint64(s.n))
	for c, col := range s.cols {
		b = sequitur.AppendInts(append(b, s.enc[c]), col)
	}
	return b
}

// baseSection is three Comm_split entries of one template, colors and
// keys 0, 1 and 2, called once each for 10 ns on average, laid out as
// rows.
func baseSection() tmplSection {
	return tmplSection{
		tmpls: []string{splitTemplate(2)},
		n:     3,
		cols:  [4][]int64{{0, 0, 0}, {0, 0, 1, 1, 1, 1}, {1, 0, 0}, {10, 0, 0}},
	}
}

// withCST is templatedFile's bytes with sel and section in place of its
// CST section.
func withCST(tb testing.TB, sel byte, section []byte) []byte {
	tb.Helper()
	f := templatedFile(tb)
	data := serialize(tb, f)
	at := cstAt(f)
	if data[at] != cstTemplated {
		tb.Fatalf("templatedFile's CST selector is %d", data[at])
	}
	n, k := binary.Uvarint(data[at+1:])
	rest := data[at+1+k+int(n):]
	out := append(slices.Clone(data[:at]), sel)
	out = binary.AppendUvarint(out, uint64(len(section)))
	return append(append(out, section...), rest...)
}

// hostileTemplates are templatedFile with its CST section damaged the
// ways a writer never damages it. Each must be refused.
func hostileTemplates(tb testing.TB) map[string][]byte {
	tb.Helper()
	damaged := map[string]func(s *tmplSection){
		"template Join cannot walk": func(s *tmplSection) { s.tmpls[0] = "\xff\x7f" },
		"template id out of range":  func(s *tmplSection) { s.cols[0][2] = 1 },
		"negative template id":      func(s *tmplSection) { s.cols[0][2] = -1 },
		"template ids out of use order": func(s *tmplSection) {
			s.tmpls = append(s.tmpls, splitTemplate(3))
			s.cols[0] = []int64{1, 0, 0}
		},
		"template never used":  func(s *tmplSection) { s.tmpls = append(s.tmpls, splitTemplate(3)) },
		"lifted values short":  func(s *tmplSection) { s.cols[1] = s.cols[1][:5] },
		"lifted values long":   func(s *tmplSection) { s.cols[1] = append(s.cols[1], 1) },
		"counts short":         func(s *tmplSection) { s.cols[2] = s.cols[2][:2] },
		"run past the entries": func(s *tmplSection) { s.enc[0], s.cols[0] = vecRowsRLE, []int64{0, 4} },
		"run of none":          func(s *tmplSection) { s.enc[0], s.cols[0] = vecRowsRLE, []int64{0, 0, 0, 3} },
		"rebuilt duplicate":    func(s *tmplSection) { s.cols[1] = []int64{0, 0, 0, 0, 1, 1} },
		"equal templates": func(s *tmplSection) { // entries 0 and 1 are one signature
			s.tmpls = append(s.tmpls, s.tmpls[0])
			s.cols[0], s.cols[1] = []int64{0, 1, 1}, []int64{0, 0, 0, 0, 1, 1}
			s.cols[2], s.cols[3] = []int64{1, 1, 0}, []int64{10, 10, 0}
		},
		"count of zero":              func(s *tmplSection) { s.cols[2] = []int64{1, -1, 1} },
		"duration sum overflows":     func(s *tmplSection) { s.cols[2], s.cols[3] = []int64{2, 0, 0}, []int64{math.MaxInt64, 0, 0} },
		"unknown layout":             func(s *tmplSection) { s.enc[3] = vecColsRLE + 1 },
		"column layout of one-wides": func(s *tmplSection) { s.enc[0] = vecColsRLE },
		"template order of ids":      func(s *tmplSection) { s.enc[0] = inOrder },
		"entries past the cap": func(s *tmplSection) {
			s.n, s.enc[0], s.cols[0] = maxCSTEntries+1, vecRowsRLE, []int64{0, maxCSTEntries + 1}
		},
		"signature bytes past the cap": func(s *tmplSection) {
			name := strings.Repeat("x", 200)
			b := binary.AppendVarint(binary.AppendUvarint(nil, uint64(mpispec.FCommSetName)), 1)
			s.tmpls[0] = string(append(binary.AppendUvarint(b, uint64(len(name))), name...))
			s.n = maxCSTSigBytes/len(s.tmpls[0]) + 1
			s.enc[0], s.cols[0] = vecRowsRLE, []int64{0, int64(s.n)}
			s.cols[1] = nil
			for c := 2; c < 4; c++ {
				s.enc[c], s.cols[c] = vecRowsRLE, []int64{1, 1, 0, int64(s.n - 1)}
			}
		},
	}
	out := map[string][]byte{}
	for name, damage := range damaged {
		s := baseSection()
		damage(&s)
		out[name] = withCST(tb, cstTemplated, s.bytes())
	}
	good := baseSection().bytes()
	out["bytes past the section"] = withCST(tb, cstTemplated, append(slices.Clone(good), 0))
	out["section cut short"] = withCST(tb, cstTemplated, good[:len(good)-1])
	out["unknown CST selector"] = withCST(tb, 2, good)
	for _, m := range []string{magic, magicShapes, magicPack, magicDeflate} {
		mut := withCST(tb, cstTemplated, good)
		copy(mut, m)
		out["templated CST under "+m] = mut
	}
	return out
}

// TestReadRejectsHostileTemplates: the undamaged base section reads to
// its three entries, and each damaged one is refused.
func TestReadRejectsHostileTemplates(t *testing.T) {
	f, err := Read(bytes.NewReader(withCST(t, cstTemplated, baseSection().bytes())))
	if err != nil {
		t.Fatal(err)
	}
	want := cst.New()
	for r := int64(0); r < 3; r++ {
		want.Add(splitSig(r, r, 2), 10)
	}
	if !bytes.Equal(f.CST.Serialize(), want.Serialize()) {
		t.Fatal("the base section reads to another table")
	}
	for name, data := range hostileTemplates(t) {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTemplatedFileRoundTrip: a File whose CST takes fewer bytes
// templated is magicIndex, stores its CST templated, reads back to
// the same table and writes again to the same bytes; the same table
// with one entry that does not split is stored raw, behind cstRaw.
func TestTemplatedFileRoundTrip(t *testing.T) {
	f := templatedFile(t)
	st := f.CSTStorage()
	if st.Form != "templated" || st.Entries != 16 || st.Templates != 4 || st.Stored >= st.Raw || st.Raw != len(f.CST.Serialize()) {
		t.Fatalf("templatedFile stores its CST %+v", st)
	}
	data := serialize(t, f)
	if !bytes.HasPrefix(data, []byte(magicIndex)) || data[cstAt(f)] != cstTemplated {
		t.Fatalf("file starts %q with CST selector %d", data[:len(magic)], data[cstAt(f)])
	}
	if cstB, _, _, _ := f.SectionSizes(); cstB != 1+framedLen(st.Stored) {
		t.Errorf("SectionSizes counts the CST as %d bytes, stored in %d", cstB, st.Stored)
	}
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.CST.Serialize(), f.CST.Serialize()) {
		t.Fatal("CST changed")
	}
	if gst := got.CSTStorage(); gst != st {
		t.Fatalf("read back as %+v, written as %+v", gst, st)
	}
	if again := serialize(t, got); !bytes.Equal(again, data) {
		t.Fatal("a file read back writes other bytes")
	}

	f = templatedFile(t)
	f.CST.Add([]byte("sigZ"), 1)
	if st := f.CSTStorage(); st.Form != "raw" || st.Templates != 0 {
		t.Fatalf("a table with an entry that does not split is stored %+v", st)
	}
	raw := binary.AppendUvarint([]byte{cstRaw}, uint64(len(f.CST.Serialize())))
	raw = append(raw, f.CST.Serialize()...)
	if data := serialize(t, f); !bytes.HasPrefix(data, []byte(magicIndex)) || !bytes.HasPrefix(data[cstAt(f):], raw) {
		t.Fatalf("file starts %q, and its CST is not stored raw behind its selector", data[:len(magic)])
	}
}

// TestTemplatedColumnsInEitherOrder: the lifted values of a templated
// CST are laid out with the entries in entry or in template order,
// whichever takes fewer ints, and read back either way. Two templates
// whose values step evenly, entries alternating, favour template order;
// three whose values step alike, alternately by 3 and 7, entry order.
func TestTemplatedColumnsInEitherOrder(t *testing.T) {
	for name, c := range map[string]struct {
		add     func(tb *cst.Table, r int64)
		ordered bool
	}{
		"even steps": {func(tb *cst.Table, r int64) {
			tb.Add(splitSig(r, 0, 2), 7)
			tb.Add(splitSig(2*r, 0, 3), 7)
		}, true},
		"alternate steps": {func(tb *cst.Table, r int64) {
			for comm := int64(2); comm < 5; comm++ {
				tb.Add(splitSig(5*r+3-r%2*2, 0, comm), 7)
			}
		}, false},
	} {
		f := templatedFile(t)
		f.CST = cst.New()
		for r := int64(0); r < 40; r++ {
			c.add(f.CST, r)
		}
		data := serialize(t, f)
		if data[cstAt(f)] != cstTemplated {
			t.Fatalf("%s: stored raw", name)
		}
		n, k := binary.Uvarint(data[cstAt(f)+1:])
		section := data[cstAt(f)+1+k:][:n]
		if ordered := columnLayouts(section)[1]&inOrder != 0; ordered != c.ordered {
			t.Errorf("%s: lifted values in template order: %v", name, ordered)
		}
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.CST.Serialize(), f.CST.Serialize()) {
			t.Fatalf("%s: CST changed", name)
		}
	}
}

// columnLayouts is the layout byte of each column of a templated CST
// section b.
func columnLayouts(b []byte) []byte {
	c := &cursor{b: b}
	nt, _ := c.uvarint()
	for range nt {
		l, _ := c.uvarint()
		c.pos += int(l)
	}
	c.uvarint()
	var encs []byte
	for range 4 {
		encs = append(encs, b[c.pos])
		_, k, _ := sequitur.ReadInts[int64](b[c.pos+1:])
		c.pos += 1 + k
	}
	return encs
}

// cstAt is the offset of f's CST section, or of its selector from
// magicTemplates on: past the magic and the header.
func cstAt(f *File) int {
	hdr := binary.AppendUvarint(nil, uint64(f.NumRanks))
	hdr = append(hdr, f.TimingMode)
	hdr = binary.AppendUvarint(hdr, math.Float64bits(f.TimingBase))
	return len(magic) + len(hdr)
}

// diffDecodedSigs returns an error naming the first CST entry whose
// DecodedSig is not sig.Decode of its signature, errors included, or
// does not carry the entry's mean duration.
func diffDecodedSigs(f *File) error {
	for term := range int32(f.CST.Len()) {
		e, gerr := f.DecodedSig(term)
		var got sig.Decoded
		if e != nil {
			got = e.Decoded
			if avg := f.CST.AvgDuration(term); e.AvgDuration != avg {
				return fmt.Errorf("CST entry %d: DecodedSig's mean duration is %d, the CST's %d", term, e.AvgDuration, avg)
			}
		}
		want, werr := sig.Decode(f.CST.Sig(term))
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Errorf("CST entry %d: DecodedSig gives %v (%v), sig.Decode %v (%v)", term, got, gerr, want, werr)
		}
	}
	return nil
}

// TestDecodedSigMatchesDecode: DecodedSig, which decodes each template
// once and fills each entry's lifted values in, gives every entry of
// every checked-in trace — the goldens, the compat and version
// fixtures — and of every FuzzTraceRead seed the reader accepts what
// sig.Decode gives its signature, errors included. So does a File whose
// CST was replaced after Read, which DecodedSig decodes entry by entry.
func TestDecodedSigMatchesDecode(t *testing.T) {
	var paths []string
	for _, pat := range []string{
		"../../testdata/golden/*.pilgrim", "../../testdata/compat/*.pilgrim", "../../testdata/compat/v6/*.pilgrim",
		"../replay/testdata/golden/*.pilgrim", "testdata/v*/*.pilgrim",
	} {
		ps, err := filepath.Glob(pat)
		if err != nil || len(ps) == 0 {
			t.Fatalf("%s: %d traces (%v)", pat, len(ps), err)
		}
		paths = append(paths, ps...)
	}
	templated := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f := readTB(t, data)
		if f.CSTStorage().Form == "templated" {
			templated++
		}
		if err := diffDecodedSigs(f); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
	if templated == 0 {
		t.Fatalf("none of %d traces stores its CST templated", len(paths))
	}
	accepted := 0
	for i, data := range traceReadSeeds(t) {
		f, err := Read(bytes.NewReader(data))
		if err != nil {
			continue
		}
		accepted++
		if err := diffDecodedSigs(f); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
	t.Logf("%d traces, %d templated; %d seeds read", len(paths), templated, accepted)

	f := readTB(t, serialize(t, templatedFile(t)))
	f.CST = templatedFile(t).CST
	f.CST.Add(splitSig(9, 9, 9), 1)
	if err := diffDecodedSigs(f); err != nil {
		t.Fatalf("CST replaced after Read: %v", err)
	}
}

// inGrains feeds a templater t's entries in grains of g.
func inGrains(t *cst.Table, g int) *CSTTemplater {
	c := NewCSTTemplater(0)
	for at := 0; at < t.Len(); at += g {
		sigs := make([]string, 0, g)
		for i := at; i < min(at+g, t.Len()); i++ {
			sigs = append(sigs, t.SigString(int32(i)))
		}
		c.Split(sigs)
	}
	return c
}

// TestCSTTemplaterInGrains: a templater fed a table's entries in grains
// of any size, as the finalize walk feeds it, builds the section
// templateCST builds, on the CST of every checked-in trace and a table
// of Comm_split entries; with an entry that does not split, anywhere,
// or with a cap crossed, at the grain's first entry or within it, it
// builds none, and a File carrying it stores the CST raw. A File whose
// templater covers other than its CST's entries templates it from
// scratch.
func TestCSTTemplaterInGrains(t *testing.T) {
	tables := []*cst.Table{templatedFile(t).CST}
	for _, pat := range []string{"../../testdata/golden/*.pilgrim", "testdata/v*/*.pilgrim"} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: %d traces (%v)", pat, len(paths), err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tables = append(tables, readTB(t, data).CST)
		}
	}
	templated := 0
	for i, tb := range tables {
		want, wantN := templateCST(tb)
		if want != nil {
			templated++
		}
		for _, g := range []int{1, 5, 128, tb.Len() + 1} {
			c := inGrains(tb, g)
			if got, n := c.Section(tb); c.Len() != tb.Len() || !bytes.Equal(got, want) || n != wantN || c.Templates() != n {
				t.Fatalf("table %d in grains of %d: %d entries split, a %d-byte section of %d templates (%d counted), from scratch %d of %d",
					i, g, c.Len(), len(got), n, c.Templates(), len(want), wantN)
			}
		}
	}
	if templated == 0 {
		t.Fatalf("none of %d tables templates", len(tables))
	}

	for _, at := range []int{0, 7, 16} {
		f := templatedFile(t)
		tb := cst.New()
		for i := range 16 {
			if i == at {
				tb.Add([]byte("sigZ"), 1)
			}
			tb.Add(f.CST.Sig(int32(i)), f.CST.AvgDuration(int32(i)))
		}
		if at == 16 {
			tb.Add([]byte("sigZ"), 1)
		}
		for _, g := range []int{1, 4, 17} {
			f.CST, f.CSTTemplater = tb, inGrains(tb, g)
			if sec, n := f.CSTTemplater.Section(tb); sec != nil || n != 0 || f.CSTTemplater.Len() != 17 {
				t.Fatalf("sigZ at %d, grains of %d: a %d-byte section of %d templates over %d entries", at, g, len(sec), n, f.CSTTemplater.Len())
			}
			if st := f.CSTStorage(); st.Form != "raw" {
				t.Fatalf("sigZ at %d, grains of %d: the CST stored %+v", at, g, st)
			}
		}
	}

	sigs := make([]string, 16)
	for i := range sigs {
		sigs[i] = string(splitSig(int64(i), 0, 2))
	}
	for _, c := range []struct {
		name    string
		n, size int // where the templater stands before the last grain
	}{
		{"entries at the grain's first", maxCSTEntries, 0},
		{"entries within the grain", maxCSTEntries - 3, 0},
		{"signature bytes at the grain's first", 0, maxCSTSigBytes - len(sigs[0]) + 1},
		{"signature bytes within the grain", 0, maxCSTSigBytes - 3*len(sigs[0])},
	} {
		tm := NewCSTTemplater(0)
		tm.Split(sigs[:4])
		tm.n, tm.size = c.n, c.size
		tm.Split(sigs[4:])
		if !tm.failed || tm.Templates() != 0 || tm.Len() != c.n+12 {
			t.Fatalf("%s crossed: failed %v, %d templates, %d entries", c.name, tm.failed, tm.Templates(), tm.Len())
		}
	}

	f := templatedFile(t)
	want := serialize(t, templatedFile(t))
	short := inGrains(f.CST, 3)
	f.CSTTemplater = short
	f.CST.Add(splitSig(9, 9, 9), 1) // the table grew past what short split
	want2 := templatedFile(t)
	want2.CST.Add(splitSig(9, 9, 9), 1)
	if got := serialize(t, f); !bytes.Equal(got, serialize(t, want2)) || bytes.Equal(got, want) {
		t.Fatal("a templater short of the CST's entries was written")
	}
	if sec, _ := short.Section(f.CST); sec != nil {
		t.Fatalf("a templater short of the table built a %d-byte section", len(sec))
	}
}
