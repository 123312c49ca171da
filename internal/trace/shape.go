package trace

// A flagShapes call section (DESIGN §4d): the representatives as any
// grammar set, File.Shape as (value, run length) pairs, a layout byte,
// and the other grammars' vectors as deltas against their shape's last.

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// Delta layouts, the one with the fewest ints written. A row is one
// grammar's deltas; rows go in grammar order.
const (
	vecRows    = 0 // the rows as they are
	vecRowsRLE = 1 // the rows, run-length encoded
	vecColsRLE = 2 // column by column (transpose), run-length encoded
)

// shapedSection is a flagShapes call section before varint framing.
type shapedSection struct {
	reps   []sequitur.Serialized
	runs   []int32 // File.Shape, run-length encoded
	vecEnc byte
	vecs   []int32
}

// Representatives returns the grammars whose Shape entry is -1, in
// order: every grammar when Shape is nil. Packed is their pack.
func (f *File) Representatives() []sequitur.Serialized {
	if f.Shape == nil {
		return f.Grammars
	}
	var reps []sequitur.Serialized
	for j, s := range f.Shape {
		if s == -1 && j < len(f.Grammars) {
			reps = append(reps, f.Grammars[j])
		}
	}
	return reps
}

// shaped lays the call section out by shape. It returns nil when no
// shape repeats, and an error when Shape does not describe Grammars.
func (f *File) shaped() (*shapedSection, error) {
	if f.Shape == nil {
		return nil, nil
	}
	if err := checkShape(f.Shape, len(f.Grammars)); err != nil {
		return nil, err
	}
	reps := f.Representatives()
	if len(reps) == len(f.Grammars) {
		return nil, nil
	}
	if f.ShapeVecs != nil && len(f.ShapeVecs) != len(f.Grammars) {
		return nil, fmt.Errorf("trace: %d shape vectors for %d grammars", len(f.ShapeVecs), len(f.Grammars))
	}
	shapes, last, n := repShapes(f.Shape, f.Grammars)
	d := make([]int32, 0, n)
	var sorted []int32
	var scratch sequitur.Serialized
	for j, r := range f.Shape {
		if r == -1 {
			continue
		}
		var vec []int32
		if f.ShapeVecs != nil {
			vec = f.ShapeVecs[j]
		} else {
			scratch, vec = f.Grammars[j].ShapeInto(scratch)
		}
		// A vector of distinct terminals that relabels r's shape to the
		// grammar is the one Shape gives it.
		ok := len(vec) == len(last[r])
		if ok {
			sorted, ok = distinct(vec, sorted)
		}
		ok = ok && shapes[r].RelabelsTo(vec, f.Grammars[j])
		if !ok {
			return nil, fmt.Errorf("trace: grammar %d does not have the shape of grammar %d", j, r)
		}
		for c, t := range vec {
			d = append(d, t-last[r][c])
		}
		last[r] = vec
	}
	sec := &shapedSection{reps: reps, runs: rle(f.Shape)}
	sec.vecEnc, sec.vecs = layout(d, rowLens(f.Shape, last))
	return sec, nil
}

// writeCalls writes the call section: by shape if sec is non-nil, and
// the representatives as pack if that is non-nil (see writePackable).
func (f *File) writeCalls(w *bytes.Buffer, sec *shapedSection, pack sequitur.Serialized) {
	if sec == nil {
		writePackable(w, f.Grammars, pack)
		return
	}
	w.WriteByte(flagShapes)
	writePackable(w, sec.reps, pack)
	writeInts(w, sec.runs)
	w.WriteByte(sec.vecEnc)
	writeInts(w, sec.vecs)
}

// shaped reads a flagShapes call section into f, relabeling each
// representative's shape by the vectors of its shape's other grammars.
// These may hold no more ints than a pack may unpack to.
func (br byteReader) shaped(f *File) error {
	reps, pack, err := br.readPackable(f.NumRanks)
	var runs, shape []int32
	if err == nil {
		runs, err = br.ints()
	}
	if err == nil {
		shape, err = unrle(runs, f.NumRanks)
	}
	if err == nil {
		err = checkShape(shape, len(shape))
	}
	if err != nil {
		return err
	}
	gs, size := make([]sequitur.Serialized, len(shape)), 0 // size: ints to rebuild
	for j, r := range shape {
		switch {
		case r != -1:
			size += len(gs[r])
		case len(reps) == 0:
			return fmt.Errorf("trace: shape column names more representatives than are stored")
		default:
			gs[j], reps = reps[0], reps[1:]
		}
	}
	switch {
	case len(reps) != 0:
		return fmt.Errorf("trace: %d representatives stored but not named", len(reps))
	case size > maxPackInts:
		return fmt.Errorf("trace: shape section rebuilds %d grammar ints", size)
	}
	shapes, last, n := repShapes(shape, gs)
	var d []int32
	enc, err := br.r.ReadByte()
	if err == nil {
		d, err = br.ints()
	}
	if err == nil {
		d, err = unlayout(enc, d, n, rowLens(shape, last))
	}
	if err != nil {
		return err
	}
	var sorted []int32
	at := 0
	for j, r := range shape {
		if r == -1 {
			continue
		}
		vec := d[at : at+len(last[r])] // the deltas become the vector
		for c := range vec {
			t := int64(last[r][c]) + int64(vec[c])
			if t < 0 || t > math.MaxInt32 {
				return fmt.Errorf("trace: grammar %d names terminal %d", j, t)
			}
			vec[c] = int32(t)
		}
		var ok bool
		if sorted, ok = distinct(vec, sorted); !ok { // another shape, which no writer stores here
			return fmt.Errorf("trace: grammar %d's vector names a terminal twice", j)
		}
		if gs[j], err = shapes[r].Relabel(vec); err != nil {
			return err
		}
		last[r], at = vec, at+len(vec)
	}
	f.Grammars, f.Packed, f.Shape = gs, pack, shape
	return nil
}

// distinct reports whether vec names no terminal twice, sorting a copy
// of it in sorted, whose storage it returns for the next call.
func distinct(vec, sorted []int32) ([]int32, bool) {
	sorted = append(sorted[:0], vec...)
	slices.Sort(sorted)
	return sorted, len(slices.Compact(sorted)) == len(vec)
}

// checkShape requires a Shape column for n grammars: each entry -1 or
// the index of an earlier -1 entry.
func checkShape(shape []int32, n int) error {
	if len(shape) != n {
		return fmt.Errorf("trace: %d shape entries for %d grammars", len(shape), n)
	}
	for j, s := range shape {
		if s != -1 && (s < 0 || int(s) >= j || shape[s] != -1) {
			return fmt.Errorf("trace: grammar %d names shape %d, which is not an earlier representative", j, s)
		}
	}
	return nil
}

// repShapes returns, by grammar index, each representative's shape and
// vector, and n, the length of all rows. gs holds the representatives.
func repShapes(shape []int32, gs []sequitur.Serialized) (shapes []sequitur.Serialized, vecs [][]int32, n int) {
	shapes, vecs = make([]sequitur.Serialized, len(shape)), make([][]int32, len(shape))
	for j, r := range shape {
		if r == -1 {
			shapes[j], vecs[j] = gs[j].Shape()
		} else {
			n += len(vecs[r])
		}
	}
	return shapes, vecs, n
}

// rowLens is the length of each non-representative's row of deltas,
// in grammar order. vecs[r] is as long as representative r's vector.
func rowLens(shape []int32, vecs [][]int32) []int {
	var lens []int
	for _, r := range shape {
		if r != -1 {
			lens = append(lens, len(vecs[r]))
		}
	}
	return lens
}

// layout returns the layout of the rows d, of lengths lens, that takes
// the fewest ints, and d in it. With lens nil every row is one int
// long, and a column is a row.
func layout[T int32 | int64](d []T, lens []int) (byte, []T) {
	enc, n := byte(vecRows), len(d)
	if r := 2 * runs(d); r < n {
		enc, n = vecRowsRLE, r
	}
	var cols []T
	if lens != nil {
		if cols = transpose(lens, d, false); 2*runs(cols) < n {
			enc = vecColsRLE
		}
	}
	switch enc {
	case vecRowsRLE:
		return enc, rle(d)
	case vecColsRLE:
		return enc, rle(cols)
	}
	return enc, d
}

// unlayout reverses layout: vs in layout enc are n ints of rows of
// lengths lens (lens nil if layout was given nil).
func unlayout[T int32 | int64](enc byte, vs []T, n int, lens []int) ([]T, error) {
	var err error
	switch {
	case enc > vecColsRLE || enc == vecColsRLE && lens == nil:
		return nil, fmt.Errorf("trace: unknown layout %d", enc)
	case enc != vecRows:
		vs, err = unrle(vs, n)
	}
	if err != nil {
		return nil, err
	}
	if len(vs) != n {
		return nil, fmt.Errorf("trace: %d ints where %d are due", len(vs), n)
	}
	if enc == vecColsRLE {
		vs = transpose(lens, vs, true)
	}
	return vs, nil
}

// transpose reorders the rows d, of lengths lens, column by column:
// every row's first int, in row order, then every second int, and so
// on; back undoes it.
func transpose[T int32 | int64](lens []int, d []T, back bool) []T {
	out, i := make([]T, len(d)), 0
	for c := 0; i < len(d); c++ {
		at := 0 // where the row starts in d
		for _, l := range lens {
			if c < l {
				if back {
					out[at+c] = d[i]
				} else {
					out[i] = d[at+c]
				}
				i++
			}
			at += l
		}
	}
	return out
}

// runs is the number of runs of equal values in vs.
func runs[T int32 | int64](vs []T) int {
	n := 0
	for i := range vs {
		if i == 0 || vs[i] != vs[i-1] {
			n++
		}
	}
	return n
}

// rle run-length encodes vs as (value, run length) pairs.
func rle[T int32 | int64](vs []T) []T {
	out := make([]T, 0, 2*runs(vs))
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		out = append(out, vs[i], T(j-i))
		i = j
	}
	return out
}

// unrle reverses rle, refusing to expand to more than max values.
func unrle[T int32 | int64](pairs []T, max int) ([]T, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("trace: %d ints of run-length pairs", len(pairs))
	}
	n := 0
	for i := 1; i < len(pairs); i += 2 {
		run := int64(pairs[i])
		if run < 1 || run > int64(max-n) {
			return nil, fmt.Errorf("trace: run of %d past %d values", run, max)
		}
		n += int(run)
	}
	out := make([]T, 0, n)
	for i := 0; i < len(pairs); i += 2 {
		for run := pairs[i+1]; run > 0; run-- {
			out = append(out, pairs[i])
		}
	}
	return out, nil
}
