package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// indexFile is a File of n ranks whose rank map is idx, naming as many
// one-call grammars as idx needs, with aggregated timing.
func indexFile(tb testing.TB, idx []int32) *File {
	tb.Helper()
	f := mkFileTB(tb)
	m := int32(0)
	for _, v := range idx {
		m = max(m, v+1)
	}
	f.NumRanks, f.RankMap, f.Grammars = len(idx), idx, make([]sequitur.Serialized, m)
	for i := range f.Grammars {
		f.Grammars[i] = mkGrammar([]int32{int32(i % 3)})
	}
	return f
}

// grid is the rank map of a w×h stencil: each cell's class (corner,
// edge or interior) numbered by first occurrence, row by row.
func grid(w, h int) []int32 {
	class := func(i, n int) int {
		switch i {
		case 0:
			return 0
		case n - 1:
			return 2
		}
		return 1
	}
	seen := map[int]int32{}
	var idx []int32
	for y := range h {
		for x := range w {
			c := 3*class(y, h) + class(x, w)
			if _, ok := seen[c]; !ok {
				seen[c] = int32(len(seen))
			}
			idx = append(idx, seen[c])
		}
	}
	return idx
}

// columnBytes is the bytes a column of vs at stride s takes behind its
// selector: the smaller of its ints raw and run-length encoded.
func columnBytes(vs []int32, s int) int {
	d := slices.Clone(vs)
	for i := len(d) - 1; i >= s && s > 0; i-- {
		d[i] -= d[i-s]
	}
	raw := uvarintLen(columnSelector(vecRows, s)) + intsLen(d)
	return min(raw, uvarintLen(columnSelector(vecRowsRLE, s))+intsLen(rle(d)))
}

// TestIndexStoresTheSmallerForm: for random index vectors, periodic
// ones, and the rank maps of stencil grids up to 32×32, the writer
// stores the rank map in no more bytes than its grammar or a column at
// any stride the writer may use, stores a column only when it is
// smaller than the grammar, and the file reads back to the same rank
// map.
func TestIndexStoresTheSmallerForm(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var cases [][]int32
	for _, wh := range [][2]int{{3, 3}, {6, 6}, {4, 4}, {32, 32}, {16, 8}, {5, 7}} {
		cases = append(cases, grid(wh[0], wh[1]))
	}
	for _, n := range []int{1, 2, 7, 12, 64, 101, 360} {
		for _, m := range []int{1, 3, n} {
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(rng.Intn(m))
			}
			cases = append(cases, idx)
			period := make([]int32, n) // a repeating pattern, seldom at a divisor of n
			for i := range period {
				period[i] = int32(i % min(7, m))
			}
			cases = append(cases, period)
		}
	}
	grammars := 0
	for _, idx := range cases {
		f := indexFile(t, idx)
		data := serialize(t, f)
		st := f.IndexStorage()[rankMapIndex]
		best := 1 + intsLen(rankGrammar(idx))
		if st.Form == "grammar" {
			grammars++
		}
		if st.Form != "grammar" && st.Bytes >= best {
			t.Errorf("%v: a %d-byte column stored over a %d-byte grammar", idx, st.Bytes, best)
		}
		for s := 0; s < max(len(idx), 1); s++ {
			if s <= 1 || len(idx)%s == 0 {
				best = min(best, columnBytes(idx, s))
			}
		}
		if st.Bytes != best {
			t.Errorf("%v: stored %+v, the smallest form takes %d bytes", idx, st, best)
		}
		got := readTB(t, data)
		if !slices.Equal(got.RankMap, idx) || got.IndexStorage() != f.IndexStorage() {
			t.Errorf("%v: read back %v stored %+v", idx, got.RankMap, got.IndexStorage())
		}
	}
	if grammars == 0 {
		t.Error("no case kept its grammar")
	}
	if st := indexFile(t, grid(32, 32)).IndexStorage()[rankMapIndex]; st.Form != "column-rle" || st.Stride != 32 {
		t.Errorf("a 32×32 grid's rank map is stored %+v, not at its row length", st)
	}
}

// TestWideIndicesStayConstant: a 65 536-rank File whose rank map names
// a grammar of its own per rank, and whose timing indices all name
// grammar 0, stores each index section in at most 16 bytes, and reads
// back to the same indices.
func TestWideIndicesStayConstant(t *testing.T) {
	const n = 1 << 16
	f := richFile(t)
	f.NumRanks, f.Salvage, f.Packed = n, nil, nil
	f.RankMap, f.Grammars = make([]int32, n), make([]sequitur.Serialized, n)
	for r := range f.RankMap {
		f.RankMap[r], f.Grammars[r] = int32(r), f.DurGrammars[0]
	}
	f.DurIndex, f.IntIndex = make([]int32, n), make([]int32, n)
	for k, st := range f.IndexStorage() {
		if st.Bytes > 16 {
			t.Errorf("%s stored %+v", indexNames[k], st)
		}
	}
	got := readTB(t, serialize(t, f))
	if !slices.Equal(got.RankMap, f.RankMap) || !slices.Equal(got.DurIndex, f.DurIndex) || !slices.Equal(got.IntIndex, f.IntIndex) {
		t.Fatal("the indices read back changed")
	}
}

// indexAt is where the section of index k of f ends in f's bytes, and
// where it starts. f's body must be raw.
func indexAt(f *File, k int) (start, end int) {
	s := f.form()
	end = s.at + s.ends[k+1]
	return end - s.index[k].Bytes, end
}

// section is an index section: selector sel, then ints.
func section(sel uint64, ints ...int32) []byte {
	in := sequitur.AppendInts(nil, ints)
	return append(binary.AppendUvarint(binary.AppendUvarint(nil, sel), uint64(len(in))), in...)
}

// column is the section of a column of layout enc and stride s.
func column(enc byte, s int, ints ...int32) []byte {
	return section(columnSelector(enc, s), ints...)
}

// hostileIndices are mkFile (4 ranks, 2 grammars, aggregated timing)
// with an index section replaced the ways a writer never writes one.
// Each must be refused: read anyway, it would hold other than a
// grammar per rank, or name a grammar the set does not hold.
func hostileIndices(tb testing.TB) map[string][]byte {
	tb.Helper()
	f := mkFileTB(tb)
	data := serialize(tb, f)
	with := func(k int, sec []byte) []byte {
		start, end := indexAt(f, k)
		return slices.Concat(data[:start], sec, data[end:])
	}
	out := map[string][]byte{}
	for name, sec := range map[string][]byte{
		"run past the ranks":          column(vecRowsRLE, 0, 0, 5),
		"runs short of the ranks":     column(vecRowsRLE, 0, 0, 3),
		"ints short of the ranks":     column(vecRows, 0, 0, 1, 0),
		"sum below 0":                 column(vecRows, 1, 1, -2, 1, 0),
		"sum past the grammars":       column(vecRowsRLE, 1, 0, 1, 1, 3),
		"sum past int32":              column(vecRows, 1, 1, math.MaxInt32, math.MaxInt32, 2),
		"value past the grammars":     column(vecRows, 0, 0, 1, 2, 0),
		"row past the grammars":       column(vecRows, 2, 0, 1, 1, 1),
		"stride of the rank count":    column(vecRows, 4, 0, 1, 0, 0),
		"selector past every stride":  binary.AppendUvarint(nil, 1<<62),
		"selector of a truncated int": {0x80},
		"grammar of 3 ranks":          section(indexPlain, rankGrammar([]int32{0, 1, 0})...),
		"grammar naming a third":      section(indexPlain, rankGrammar([]int32{0, 1, 2, 0})...),
	} {
		out["rank map: "+name] = with(rankMapIndex, sec)
	}
	// A timing index column names a grammar of its set, which is empty.
	out["duration index: column of an empty set"] = with(durIndex, column(vecRowsRLE, 0, 0, 4))
	// A lossy file's plain timing indices, which name a grammar per rank
	// of one-grammar sets.
	lossy := richFile(tb)
	lossyData := serialize(tb, lossy)
	for name, sec := range map[string][]byte{
		"negative":       section(indexPlain, 0, -1, 0, 0),
		"past the set":   section(indexPlain, 0, 1, 0, 0),
		"short":          section(indexPlain, 0, 0, 0),
		"empty":          section(indexPlain),
		"run past ranks": column(vecRowsRLE, 0, 0, 5),
	} {
		start, end := indexAt(lossy, durIndex)
		out["duration index: "+name] = slices.Concat(lossyData[:start], sec, lossyData[end:])
	}
	// Columns under the magics before index selectors: a raw body's
	// under magicTemplates, a deflated body's under magicBody.
	for m, data := range map[string][]byte{
		magicTemplates: serialize(tb, indexFile(tb, []int32{0, 1, 2, 3, 4, 5, 6, 7})),
		magicBody:      serialize(tb, bodyFile(tb)),
	} {
		out["columns under "+m] = append([]byte(m), data[len(m):]...)
	}
	return out
}

// periodicFile is indexFile of 101 ranks cycling through 7 grammars:
// no stride the writer may use lines the cycle up, so its rank map
// keeps its grammar.
func periodicFile(tb testing.TB) *File {
	idx := make([]int32, 101)
	for i := range idx {
		idx[i] = int32(i % 7)
	}
	return indexFile(tb, idx)
}

// TestReadRejectsHostileIndices: each damaged index section is an
// error, and so is a file of columns under an older magic.
func TestReadRejectsHostileIndices(t *testing.T) {
	if st := indexFile(t, []int32{0, 1, 2, 3, 4, 5, 6, 7}).IndexStorage()[rankMapIndex]; st.Form == "grammar" {
		t.Fatalf("the identity rank map is stored %+v", st)
	}
	if st := periodicFile(t).IndexStorage()[rankMapIndex]; st.Form != "grammar" {
		t.Fatalf("the periodic rank map is stored %+v", st)
	}
	for name, data := range hostileIndices(t) {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestWriteRejectsNegativeRankMap: a rank map naming a negative
// grammar has no grammar to store it as, so the write fails instead of
// storing it; one naming a grammar past the set is stored as a grammar,
// and the reader refuses it.
func TestWriteRejectsNegativeRankMap(t *testing.T) {
	f := mkFile(t)
	f.RankMap = []int32{0, -1, 0, 0}
	if _, err := f.WriteTo(io.Discard); err == nil {
		t.Error("a rank map naming grammar -1 was written")
	}
	f = mkFile(t)
	f.RankMap = []int32{0, 1, 2, 3}
	if st := f.IndexStorage()[rankMapIndex]; st.Form != "grammar" {
		t.Errorf("a rank map naming grammars past the set is stored %+v", st)
	}
	if _, err := Read(bytes.NewReader(serialize(t, f))); err == nil {
		t.Error("a rank map naming grammars past the set read back")
	}
}
