package trace

// The per-rank index sections (DESIGN §4d): the rank map, and the
// duration and interval indices of lossy timing, each one int per rank
// naming a grammar of its set. From magicIndex on each starts with a
// selector, a uvarint: indexPlain, then the form an older magic stores
// without one — the rank map as a Sequitur grammar over the ints, a
// timing index as the ints themselves — or a column's: the ints less
// the int s ranks before (0 before the first s; stride s = 0 keeps the
// ints as they are), as layout lays out a column, raw or run-length,
// the selector saying which and s (see columnSelector). The writer
// stores the smallest column when it takes fewer bytes than the plain
// form.
//
// An index that names a new grammar every rank (wide_spill's 4 096
// unique grammars) is one run of ones at stride 1. A grid's rank map
// names its cells' classes row by row, and each row differs from the
// row before only where the grid's edges are: at the row length, the
// column is runs of zeros.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// indexPlain is the selector of the plain form.
const indexPlain = 0

// columnSelector is the selector of a column of layout enc, vecRows or
// vecRowsRLE, and stride s.
func columnSelector(enc byte, s int) uint64 { return 1 + 2*uint64(s) + uint64(enc) }

// IndexStorage is how one per-rank index is stored: Form is "grammar"
// (the rank map's plain form), "list" (a timing index's), or "column"
// or "column-rle"; Stride is a column's; Bytes is what it takes in the
// raw body, selector included.
type IndexStorage struct {
	Form   string
	Stride int
	Bytes  int
}

// IndexStorage reports how the rank map and the duration and interval
// indices are stored, in that order. A File WriteTo refuses reports
// zeros.
func (f *File) IndexStorage() [3]IndexStorage { return f.form().index }

// The index sections in file order; IndexStorage reports them so.
const (
	rankMapIndex = iota
	durIndex
	intIndex
)

var indexNames = [...]string{"rank map", "duration index", "interval index"}

// writeIndex writes the section of index k, vs, of a file of n ranks
// whose set holds m grammars: as its smallest column if vs is an index
// the reader takes (n ints in [0, m)) and the column takes fewer bytes
// than the plain form, else plain. The rank map's grammar is built
// only to compare, and not at all when the column is smaller than any
// grammar over vs can be.
func writeIndex(w *bytes.Buffer, k int, vs []int32, n, m int) IndexStorage {
	at := w.Len()
	st := IndexStorage{Form: "list"}
	plain := func() []int32 { return vs }
	if k == rankMapIndex {
		st.Form, plain = "grammar", sync.OnceValue(func() []int32 { return rankGrammar(vs) })
	}
	if checkIndex(indexNames[k], vs, n, m) == nil {
		enc, stride, size := smallestColumn(vs)
		if k == rankMapIndex && size < 1+minGrammarLen(vs) || size < 1+intsLen(plain()) {
			d := strided(vs, stride)
			if enc == vecRowsRLE {
				d = rle(d)
			}
			writeUvarint(w, columnSelector(enc, stride))
			writeInts(w, d)
			st.Form, st.Stride, st.Bytes = columnForm(enc), stride, w.Len()-at
			return st
		}
	}
	writeUvarint(w, indexPlain)
	writeInts(w, plain())
	st.Bytes = w.Len() - at
	return st
}

// columnForm names a column of layout enc.
func columnForm(enc byte) string {
	if enc == vecRowsRLE {
		return "column-rle"
	}
	return "column"
}

// rankGrammar is the Sequitur grammar over vs: how an older magic
// stores a rank map.
func rankGrammar(vs []int32) sequitur.Serialized {
	g := sequitur.New()
	for _, v := range vs {
		g.Append(v)
	}
	return g.Serialize()
}

// minGrammarLen bounds from below the bytes writeInts takes for any
// grammar over vs: one symbol, three ints, per distinct int (of which
// there are at least as many as ints greater than every one before),
// a rule count and a body length, and the count and length in front.
func minGrammarLen(vs []int32) int {
	k, top := 0, int32(-1)
	for _, v := range vs {
		if v > top {
			k, top = k+1, v
		}
	}
	return framedLen(3 + 3*k)
}

// smallestColumn returns the layout and stride of the column of vs
// that takes the fewest bytes, and those bytes with its selector: of
// the ints themselves (stride 0), and of their differences at stride 1
// and at every other divisor of len(vs) below it, the row lengths a
// grid of len(vs) ranks may have. A tie keeps the smaller stride.
func smallestColumn(vs []int32) (enc byte, stride, size int) {
	size = -1
	for s := 0; s < max(len(vs), 1); s++ {
		if s > 1 && len(vs)%s != 0 {
			continue
		}
		if e, n := columnLen(vs, s); size < 0 || n < size {
			enc, stride, size = e, s, n
		}
	}
	return enc, stride, size
}

// columnLen is the layout of the column of vs at stride s, and the
// bytes it takes with its selector, counted without building it.
func columnLen(vs []int32, s int) (byte, int) {
	raw, pairs, runs := 0, 0, 0
	for i := 0; i < len(vs); runs++ {
		d, j := diff(vs, s, i), i+1
		for j < len(vs) && diff(vs, s, j) == d {
			j++
		}
		raw += (j - i) * zigzagLen(d)
		pairs += zigzagLen(d) + zigzagLen(int32(j-i))
		i = j
	}
	if 2*runs < len(vs) { // as layout chooses
		return vecRowsRLE, uvarintLen(columnSelector(vecRowsRLE, s)) + framedLen(uvarintLen(uint64(2*runs))+pairs)
	}
	return vecRows, uvarintLen(columnSelector(vecRows, s)) + framedLen(uvarintLen(uint64(len(vs)))+raw)
}

// strided is vs less each int's one s ranks before (vs itself for
// s = 0).
func strided(vs []int32, s int) []int32 {
	d := make([]int32, len(vs))
	for i := range vs {
		d[i] = diff(vs, s, i)
	}
	return d
}

// diff is vs[i] less vs[i-s], or vs[i] where there is none or s = 0.
func diff(vs []int32, s, i int) int32 {
	if s > 0 && i >= s {
		return vs[i] - vs[i-s]
	}
	return vs[i]
}

// zigzagLen is the bytes sequitur.AppendInts takes for v.
func zigzagLen(v int32) int { return uvarintLen(uint64(v)<<1 ^ uint64(v>>31)) }

// index reads the section of index k of a file of n ranks whose set
// holds m grammars. Before magicIndex there is no selector and the
// section is plain. The index must hold n ints in [0, m), or, for a
// timing index of aggregated timing, none with its set empty.
func (br byteReader) index(k, n, m int) ([]int32, IndexStorage, error) {
	at := br.off()
	st := IndexStorage{Form: "list"}
	if k == rankMapIndex {
		st.Form = "grammar"
	}
	sel := uint64(indexPlain)
	if br.from(magicIndex) {
		var err error
		if sel, err = binary.ReadUvarint(br.r); err != nil {
			return nil, IndexStorage{}, err
		}
	}
	var vs []int32
	var err error
	switch stride := (sel - 1) / 2; {
	case sel == indexPlain && k == rankMapIndex:
		vs, err = br.rankGrammar(n)
	case sel == indexPlain:
		vs, err = br.ints()
	case stride != 0 && stride >= uint64(n):
		err = fmt.Errorf("trace: unknown %s selector %d: a column of stride %d for %d ranks", indexNames[k], sel, stride, n)
	default:
		enc := byte(sel-1) & 1
		st.Form, st.Stride = columnForm(enc), int(stride)
		vs, err = br.column(enc, int(stride), n, m)
	}
	if err == nil && (k == rankMapIndex || len(vs) > 0 || m > 0) {
		err = checkIndex(indexNames[k], vs, n, m)
	}
	if err != nil {
		return nil, IndexStorage{}, err
	}
	st.Bytes = br.off() - at
	return vs, st, nil
}

// rankGrammar reads a rank map stored as a grammar, and expands it to
// at most n+1 ints.
func (br byteReader) rankGrammar(n int) ([]int32, error) {
	g, err := br.grammar()
	if err != nil {
		return nil, err
	}
	// The cap is never 0 (which would disable it), even for 0 ranks.
	idx, _ := g.ExpandCapped(int64(n) + 1)
	return idx, nil
}

// column reads a column of layout enc and stride after its selector:
// the ints it lays out, which must be n. Each int is summed back in
// int64 from its difference, and must name one of m grammars before it
// is the base of another.
func (br byteReader) column(enc byte, stride, n, m int) ([]int32, error) {
	if n > 0 && m == 0 { // before the ints a run may claim are allocated
		return nil, fmt.Errorf("trace: index column of %d ranks for an empty set", n)
	}
	vs, err := br.ints()
	if err == nil {
		vs, err = unlayout(enc, vs, n, nil)
	}
	if err != nil {
		return nil, err
	}
	for i, d := range vs {
		v := int64(d)
		if stride > 0 && i >= stride {
			v += int64(vs[i-stride])
		}
		if v < 0 || v >= int64(m) {
			return nil, fmt.Errorf("trace: index column names grammar %d of %d for rank %d", v, m, i)
		}
		vs[i] = int32(v)
	}
	return vs, nil
}

// checkIndex requires index idx, named name, to hold n ints, each
// naming one of m grammars.
func checkIndex(name string, idx []int32, n, m int) error {
	if len(idx) != n {
		return fmt.Errorf("trace: %s holds %d entries for %d ranks", name, len(idx), n)
	}
	for r, i := range idx {
		if i < 0 || int(i) >= m {
			return fmt.Errorf("trace: %s names grammar %d of %d for rank %d", name, i, m, r)
		}
	}
	return nil
}
