package sig

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// What a walk does with the fields it reads. The first two decode.
const (
	decoding   = iota // build each field's DecodedValue (Decode, DecodeWhole)
	templating        // decode a template, leaving each lifted field's value 0 and noting in cuts where it goes (ParseTemplate)
	splitting         // copy in to out but the lifted values' varints, which go to vals (Split)
)

// walker is the one reader of signature bytes: a cursor over in and a
// field walker over mpispec.Spec. Decoding, templating and splitting
// are its three uses. The first failure is kept in err; the walk stops
// at it.
type walker struct {
	in   string
	pos  int
	err  error
	use  int
	from int // splitting: in[from:pos] is walked but not yet copied to out
	out  []byte
	vals []int64
	cuts []int
}

// call walks one signature, or template: the function id, then each
// parameter's field, and nothing after them. Decoding, it returns the
// call.
func (w *walker) call() (Decoded, error) {
	fid := w.uvarint()
	switch {
	case w.err != nil:
		return Decoded{}, w.err
	case fid >= uint64(mpispec.NumFuncs):
		return Decoded{}, fmt.Errorf("sig: unknown function id %d", fid)
	}
	d := Decoded{Func: mpispec.FuncID(fid)}
	spec := &mpispec.Spec[fid]
	if w.decodes() && len(spec.Params) > 0 {
		d.Args = make([]DecodedValue, len(spec.Params))
	}
	var scratch DecodedValue // the fields of a walk that does not decode
	for i := range spec.Params {
		v := &scratch
		if d.Args != nil {
			v = &d.Args[i]
		}
		if w.field(v, spec.Params[i].Kind); w.err != nil {
			return Decoded{}, fmt.Errorf("sig: %s.%s: %w", spec.Name, spec.Params[i].Name, w.err)
		}
	}
	if w.pos != len(w.in) {
		return Decoded{}, fmt.Errorf("sig: %s: %d trailing bytes", spec.Name, len(w.in)-w.pos)
	}
	if w.use == splitting {
		w.out = append(w.out, w.in[w.from:]...)
	}
	return d, nil
}

// field walks one field of kind into v. Only a walk that decodes
// reads v; it allocates only the backing store of an array field.
func (w *walker) field(v *DecodedValue, kind mpispec.ParamKind) {
	v.Kind = kind
	switch kind {
	case mpispec.KInt, mpispec.KComm, mpispec.KDatatype, mpispec.KOp,
		mpispec.KGroup, mpispec.KRequest:
		v.I = w.varint()
	case mpispec.KRank, mpispec.KColor, mpispec.KKey:
		v.Sel, v.I = w.rankLike(true)
	case mpispec.KTag:
		v.Sel, v.I = w.rankLike(false)
	case mpispec.KReqArray, mpispec.KIntArray, mpispec.KIndexArray:
		elem := mpispec.KInt
		if kind == mpispec.KReqArray {
			elem = mpispec.KRequest
		}
		n := w.uvarint()
		v.Arr = w.arr(n, 1)
		for i := uint64(0); w.err == nil && i < n; i++ {
			x := w.varint()
			if v.Arr != nil {
				v.Arr = append(v.Arr, DecodedValue{Kind: elem, I: x})
			}
		}
	case mpispec.KStatus:
		w.status(v, nil)
	case mpispec.KStatArray:
		// A status is at least a selector and a tag. All (source, tag)
		// pairs of the array are carved from one allocation.
		n := w.uvarint()
		v.Arr = w.arr(n, 2)
		var pairs []DecodedValue
		if v.Arr != nil {
			pairs = make([]DecodedValue, 2*cap(v.Arr))
		}
		var scratch DecodedValue
		for i := uint64(0); w.err == nil && i < n; i++ {
			st, pair := &scratch, []DecodedValue(nil)
			if len(pairs) >= 2 {
				v.Arr = append(v.Arr, DecodedValue{})
				st, pair, pairs = &v.Arr[len(v.Arr)-1], pairs[:0:2], pairs[2:]
			}
			w.status(st, pair)
		}
	case mpispec.KPtr:
		switch v.Sel = w.byte(); {
		case w.err != nil:
		case v.Sel == ptrHeap: // id, offset, device
			v.I, v.Off, v.Dev = int64(w.uvarint()), w.uvarint(), int64(w.uvarint())
		case v.Sel == ptrStack:
			v.I = int64(w.uvarint())
		case v.Sel != ptrNil:
			w.fail(fmt.Sprintf("bad pointer selector %d", v.Sel))
		}
	case mpispec.KString:
		n := w.uvarint()
		switch {
		case w.err != nil:
		case n > uint64(len(w.in)-w.pos): // in uint64: int(n) may wrap negative
			w.fail("truncated string")
		default:
			if w.decodes() {
				v.S = strings.Clone(w.in[w.pos : w.pos+int(n)])
			}
			w.pos += int(n)
		}
	default:
		w.fail(fmt.Sprintf("unhandled kind %v", kind))
	}
}

// arr sizes the backing store of an array field claiming n elements of
// at least minBytes each, when decoding: at most what the bytes left
// could hold, so a longer claim fails as a truncation after that many
// elements. An empty array stays nil.
func (w *walker) arr(n uint64, minBytes int) []DecodedValue {
	if room := uint64(len(w.in)-w.pos) / uint64(minBytes); n > room {
		n = room
	}
	if n == 0 || !w.decodes() {
		return nil
	}
	return make([]DecodedValue, 0, n)
}

// status walks a status into v: its source, lifted, then its tag.
// Decoding, v holds them as the pair appended to pair, which lets a
// status array own the storage of all its pairs.
func (w *walker) status(v *DecodedValue, pair []DecodedValue) {
	v.Kind = mpispec.KStatus
	sel, src := w.rankLike(true)
	if w.err != nil {
		return
	}
	if tag := w.varint(); w.decodes() {
		v.Arr = append(pair, DecodedValue{Kind: mpispec.KRank, Sel: sel, I: src},
			DecodedValue{Kind: mpispec.KTag, Sel: selAbs, I: tag})
	}
}

// decodes reports whether the walk builds the fields it reads.
func (w *walker) decodes() bool { return w.use <= templating }

// rankLike walks a selector and, for selRel and selAbs, its varint,
// which is a lifted value when lift is set: splitting moves it to vals,
// and a template, which lacks it, notes the cut.
func (w *walker) rankLike(lift bool) (sel byte, x int64) {
	if sel = w.byte(); w.err != nil || sel != selRel && sel != selAbs {
		return sel, 0
	}
	switch {
	case !lift || w.use == decoding:
		return sel, w.varint()
	case w.use != splitting:
		w.cuts = append(w.cuts, w.pos)
		return sel, 0
	}
	w.out = append(w.out, w.in[w.from:w.pos]...)
	if x = w.varint(); w.err == nil {
		w.vals = append(w.vals, x)
		w.from = w.pos
	}
	return sel, x
}

func (w *walker) byte() byte {
	if w.pos >= len(w.in) {
		w.fail("truncated selector")
		return 0
	}
	b := w.in[w.pos]
	w.pos++
	return b
}

// varint is a zigzag uvarint, as binary.Varint reads it.
func (w *walker) varint() int64 {
	ux := w.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// uvarint reads a uvarint in its shortest form, the only one an encoder
// writes: a longer one ends in a zero byte. That keeps a signature the
// one byte string of its call, so Join(Split(sig)) is sig.
func (w *walker) uvarint() uint64 {
	if w.pos < len(w.in) {
		if b := w.in[w.pos]; b < 0x80 { // one byte: most varints of a signature
			w.pos++
			return uint64(b)
		}
	}
	return w.longUvarint()
}

// longUvarint is uvarint past its one-byte case: binary.Uvarint, which
// fails on a truncated or overlong varint, and the shortest-form check.
func (w *walker) longUvarint() uint64 {
	var x uint64
	var s uint
	for i := 0; w.err == nil && w.pos+i < len(w.in); i++ {
		b := w.in[w.pos+i]
		if i > 0 && b == 0 {
			w.fail("uvarint longer than its shortest form")
			return 0
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			break
		}
		if b < 0x80 {
			w.pos += i + 1
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	w.fail("truncated uvarint")
	return 0
}

// fail keeps the walk's first failure, at the cursor. It is not
// inlined, so that the cursor's methods are.
//
//go:noinline
func (w *walker) fail(what string) {
	if w.err == nil {
		w.err = fmt.Errorf("sig: %s at %d", what, w.pos)
	}
}
