package trace

// A flagShapes call section (DESIGN §4d): the representatives as any
// grammar set, File.Shape as (value, run length) pairs, a layout byte,
// and the other grammars' vectors as deltas against their shape's last.

import (
	"bufio"
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
	shapes, last, n := repShapes(f.Shape, f.Grammars)
	d := make([]int32, 0, n)
	for j, r := range f.Shape {
		if r == -1 {
			continue
		}
		shape, vec := f.Grammars[j].Shape()
		if !slices.Equal(shape, shapes[r]) {
			return nil, fmt.Errorf("trace: grammar %d does not have the shape of grammar %d", j, r)
		}
		for c, t := range vec {
			d = append(d, t-last[r][c])
		}
		last[r] = vec
	}
	sec := &shapedSection{reps: reps, runs: rle(f.Shape)}
	for enc, vs := range [][]int32{vecRows: d, vecRowsRLE: rle(d), vecColsRLE: rle(transpose(f.Shape, last, d, false))} {
		if enc == vecRows || len(vs) < len(sec.vecs) {
			sec.vecEnc, sec.vecs = byte(enc), vs
		}
	}
	return sec, nil
}

// writeCalls writes the call section: by shape if sec is non-nil, and
// the representatives as pack if that is non-nil (see writePackable).
func (f *File) writeCalls(w *bufio.Writer, sec *shapedSection, pack sequitur.Serialized, packFlag byte) error {
	if sec == nil {
		return writePackable(w, f.Grammars, pack, packFlag)
	}
	// A bufio.Writer keeps its first error, and write's Flush returns it.
	_ = w.WriteByte(flagShapes)
	_ = writePackable(w, sec.reps, pack, packFlag)
	_ = writeIndex(w, sec.runs)
	_ = w.WriteByte(sec.vecEnc)
	return writeIndex(w, sec.vecs)
}

// shaped reads a flagShapes call section into f, relabeling each
// representative's shape by the vectors of its shape's other grammars.
// These may hold no more ints than a pack may unpack to.
func (br byteReader) shaped(f *File) error {
	reps, pack, err := br.readPackable(f.NumRanks)
	var runs, shape []int32
	if err == nil {
		runs, err = br.index()
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
		d, err = br.index()
	}
	if err == nil && enc > vecColsRLE {
		err = fmt.Errorf("trace: unknown vector layout %d", enc)
	}
	if err == nil && enc != vecRows {
		d, err = unrle(d, n)
	}
	if err != nil {
		return err
	}
	if len(d) != n {
		return fmt.Errorf("trace: %d vector deltas for %d terminals", len(d), n)
	}
	if enc == vecColsRLE {
		d = transpose(shape, last, d, true)
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
		sorted = append(sorted[:0], vec...)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(vec) { // another shape, which no writer stores here
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

// transpose reorders the rows d column by column: every row's first
// delta, in row order, then every second delta, and so on; back undoes
// it. vecs[r] is as long as representative r's vector.
func transpose(shape []int32, vecs [][]int32, d []int32, back bool) []int32 {
	out, i := make([]int32, len(d)), 0
	for c := 0; i < len(d); c++ {
		at := 0 // where the row starts in d
		for _, r := range shape {
			if r == -1 {
				continue
			}
			if c < len(vecs[r]) {
				if back {
					out[at+c] = d[i]
				} else {
					out[i] = d[at+c]
				}
				i++
			}
			at += len(vecs[r])
		}
	}
	return out
}

// rle run-length encodes vs as (value, run length) pairs.
func rle(vs []int32) []int32 {
	var out []int32
	for i := 0; i < len(vs); {
		j := i + 1
		for j < len(vs) && vs[j] == vs[i] {
			j++
		}
		out = append(out, vs[i], int32(j-i))
		i = j
	}
	return out
}

// unrle reverses rle, refusing to expand to more than max values.
func unrle(pairs []int32, max int) ([]int32, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("trace: %d ints of run-length pairs", len(pairs))
	}
	var out []int32
	for i := 0; i < len(pairs); i += 2 {
		run := int(pairs[i+1])
		if run < 1 || run > max-len(out) {
			return nil, fmt.Errorf("trace: run of %d past %d values", run, max)
		}
		for ; run > 0; run-- {
			out = append(out, pairs[i])
		}
	}
	return out, nil
}
