package sig

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// DecodedValue is one decoded signature field. Rank-like fields carry
// their selector so consumers know whether I is a delta (selRel), an
// absolute value (selAbs) or a special constant.
type DecodedValue struct {
	Kind mpispec.ParamKind
	Sel  byte
	I    int64
	Off  uint64 // pointer displacement (heap pointers)
	Dev  int64  // device id (heap pointers)
	Arr  []DecodedValue
	S    string
}

// Resolve returns the absolute value of a rank-like field given the
// caller's rank in the relevant communicator.
func (v DecodedValue) Resolve(base int64) int64 {
	switch v.Sel {
	case selRel:
		return base + v.I
	case selAbs:
		return v.I
	case selProcNull:
		return procNull
	case selAnySrc: // selAnyTag for a tag, color or key
		if v.Kind != mpispec.KRank {
			return anyTag
		}
		return anySource
	case selUndef:
		return undefined
	}
	return v.I
}

// IsProcNull reports whether a rank-like field is MPI_PROC_NULL.
func (v DecodedValue) IsProcNull() bool { return v.Sel == selProcNull }

// IsWildcard reports whether a rank-like field is MPI_ANY_SOURCE (or,
// for tags, MPI_ANY_TAG — the two share a selector).
func (v DecodedValue) IsWildcard() bool { return v.Sel == selAnySrc }

// IsUndefined reports whether a rank-like field is MPI_UNDEFINED.
func (v DecodedValue) IsUndefined() bool { return v.Sel == selUndef }

// Decoded is one reconstructed MPI call.
type Decoded struct {
	Func mpispec.FuncID
	Args []DecodedValue
}

// Arg reads argument i as mpispec.Completion.Slots does: its integer
// for k < 0, else element k of its array, with ok false past the
// array's end.
func (d Decoded) Arg(i, k int) (int64, bool) {
	a := &d.Args[i]
	if k < 0 {
		return a.I, true
	}
	if k < len(a.Arr) {
		return a.Arr[k].I, true
	}
	return 0, false
}

// reader is a cursor over signature bytes.
type reader struct {
	b   []byte
	pos int
}

// uvarint and varint read a varint in its shortest form, the only one
// an encoder writes: a longer one ends in a zero byte. That keeps a
// signature the one byte string of its call, so Join(Split(sig)) is sig.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("sig: truncated uvarint at %d", r.pos)
	}
	if n > 1 && r.b[r.pos+n-1] == 0 {
		return 0, fmt.Errorf("sig: uvarint at %d is longer than its shortest form", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("sig: truncated varint at %d", r.pos)
	}
	if n > 1 && r.b[r.pos+n-1] == 0 {
		return 0, fmt.Errorf("sig: varint at %d is longer than its shortest form", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.b) {
		return 0, fmt.Errorf("sig: truncated selector at %d", r.pos)
	}
	b := r.b[r.pos]
	r.pos++
	return b, nil
}

// Decode reconstructs a call from its signature bytes.
func Decode(sigBytes []byte) (Decoded, error) {
	r := &reader{b: sigBytes}
	fid, err := r.uvarint()
	if err != nil {
		return Decoded{}, err
	}
	if fid >= uint64(mpispec.NumFuncs) {
		return Decoded{}, fmt.Errorf("sig: unknown function id %d", fid)
	}
	d := Decoded{Func: mpispec.FuncID(fid)}
	spec := mpispec.Spec[d.Func]
	if len(spec.Params) > 0 {
		d.Args = make([]DecodedValue, 0, len(spec.Params))
	}
	for _, p := range spec.Params {
		v, err := decodeValue(r, p.Kind)
		if err != nil {
			return Decoded{}, fmt.Errorf("sig: %s.%s: %w", spec.Name, p.Name, err)
		}
		d.Args = append(d.Args, v)
	}
	if r.pos != len(r.b) {
		return Decoded{}, fmt.Errorf("sig: %s: %d trailing bytes", spec.Name, len(r.b)-r.pos)
	}
	return d, nil
}

// newArr sizes an array field's backing store up front. The count n
// comes from the signature bytes, so it is capped by what the bytes
// left could hold at minBytes per element; a longer claim fails with a
// truncation error after at most that many elements. An empty array
// stays nil.
func (r *reader) newArr(n uint64, minBytes int) []DecodedValue {
	if room := uint64(len(r.b)-r.pos) / uint64(minBytes); n > room {
		n = room
	}
	if n == 0 {
		return nil
	}
	return make([]DecodedValue, 0, n)
}

func decodeValue(r *reader, kind mpispec.ParamKind) (DecodedValue, error) {
	v := DecodedValue{Kind: kind}
	var err error
	switch kind {
	case mpispec.KInt, mpispec.KComm, mpispec.KDatatype, mpispec.KOp,
		mpispec.KGroup, mpispec.KRequest:
		v.I, err = r.varint()
	case mpispec.KRank:
		v.Sel, err = r.byte()
		if err == nil && (v.Sel == selRel || v.Sel == selAbs) {
			v.I, err = r.varint()
		}
	case mpispec.KTag, mpispec.KColor, mpispec.KKey:
		v.Sel, err = r.byte()
		if err == nil && (v.Sel == selRel || v.Sel == selAbs) {
			v.I, err = r.varint()
		}
	case mpispec.KReqArray:
		var n uint64
		n, err = r.uvarint()
		v.Arr = r.newArr(n, 1)
		for i := uint64(0); err == nil && i < n; i++ {
			var id int64
			id, err = r.varint()
			v.Arr = append(v.Arr, DecodedValue{Kind: mpispec.KRequest, I: id})
		}
	case mpispec.KStatus:
		return decodeStatus(r, nil)
	case mpispec.KStatArray:
		var n uint64
		n, err = r.uvarint()
		// A status is at least a selector and a tag. All (source, tag)
		// pairs of the array are carved from one allocation.
		v.Arr = r.newArr(n, 2)
		pairs := make([]DecodedValue, 2*cap(v.Arr))
		for i := uint64(0); err == nil && i < n; i++ {
			var st DecodedValue
			var pair []DecodedValue
			if len(pairs) >= 2 {
				pair, pairs = pairs[:0:2], pairs[2:]
			}
			st, err = decodeStatus(r, pair)
			v.Arr = append(v.Arr, st)
		}
	case mpispec.KPtr:
		v.Sel, err = r.byte()
		if err == nil {
			switch v.Sel {
			case ptrHeap:
				var id, dev uint64
				id, err = r.uvarint()
				if err == nil {
					v.Off, err = r.uvarint()
				}
				if err == nil {
					dev, err = r.uvarint()
					v.Dev = int64(dev)
				}
				v.I = int64(id)
			case ptrStack:
				var id uint64
				id, err = r.uvarint()
				v.I = int64(id)
			case ptrNil:
			default:
				err = fmt.Errorf("bad pointer selector %d", v.Sel)
			}
		}
	case mpispec.KString:
		var n uint64
		n, err = r.uvarint()
		if err == nil {
			// In uint64: int(n) may wrap negative past the check.
			if n > uint64(len(r.b)-r.pos) {
				err = fmt.Errorf("truncated string")
			} else {
				v.S = string(r.b[r.pos : r.pos+int(n)])
				r.pos += int(n)
			}
		}
	case mpispec.KIntArray, mpispec.KIndexArray:
		var n uint64
		n, err = r.uvarint()
		v.Arr = r.newArr(n, 1)
		for i := uint64(0); err == nil && i < n; i++ {
			var x int64
			x, err = r.varint()
			v.Arr = append(v.Arr, DecodedValue{Kind: mpispec.KInt, I: x})
		}
	default:
		err = fmt.Errorf("unhandled kind %v", kind)
	}
	return v, err
}

// decodeStatus decodes one status into a (source, tag) pair appended
// to pair, which lets a status array own the storage of all its pairs.
func decodeStatus(r *reader, pair []DecodedValue) (DecodedValue, error) {
	v := DecodedValue{Kind: mpispec.KStatus}
	sel, err := r.byte()
	if err != nil {
		return v, err
	}
	src := DecodedValue{Kind: mpispec.KRank, Sel: sel}
	if sel == selRel || sel == selAbs {
		src.I, err = r.varint()
		if err != nil {
			return v, err
		}
	}
	tag, err := r.varint()
	if err != nil {
		return v, err
	}
	v.Arr = append(pair, src, DecodedValue{Kind: mpispec.KTag, Sel: selAbs, I: tag})
	return v, nil
}

// String renders a decoded call like the paper's examples:
// MPI_Send(buf=seg0+0, count=1, datatype=INT, dest=+1, tag=999, comm=0).
func (d Decoded) String() string {
	spec := mpispec.Spec[d.Func]
	var sb strings.Builder
	sb.WriteString(spec.Name)
	sb.WriteByte('(')
	for i, a := range d.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		if i < len(spec.Params) {
			sb.WriteString(spec.Params[i].Name)
			sb.WriteByte('=')
		}
		sb.WriteString(a.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// String renders one decoded value.
func (v DecodedValue) String() string {
	switch v.Kind {
	case mpispec.KRank, mpispec.KTag, mpispec.KColor, mpispec.KKey:
		switch v.Sel {
		case selRel:
			return fmt.Sprintf("%+d", v.I)
		case selAbs:
			return fmt.Sprintf("%d", v.I)
		case selProcNull:
			return "PROC_NULL"
		case selAnySrc:
			if v.Kind == mpispec.KTag {
				return "ANY_TAG"
			}
			return "ANY_SOURCE"
		case selUndef:
			return "UNDEFINED"
		}
		return fmt.Sprintf("%d", v.I)
	case mpispec.KPtr:
		switch v.Sel {
		case ptrHeap:
			if v.Dev != 0 {
				return fmt.Sprintf("seg%d+%d@dev%d", v.I, v.Off, v.Dev)
			}
			return fmt.Sprintf("seg%d+%d", v.I, v.Off)
		case ptrStack:
			return fmt.Sprintf("stack%d", v.I)
		default:
			return "nil"
		}
	case mpispec.KString:
		return fmt.Sprintf("%q", v.S)
	case mpispec.KStatus:
		if len(v.Arr) == 2 {
			return fmt.Sprintf("{src=%s tag=%s}", v.Arr[0], v.Arr[1])
		}
		return "{}"
	case mpispec.KReqArray, mpispec.KStatArray, mpispec.KIntArray, mpispec.KIndexArray:
		parts := make([]string, len(v.Arr))
		for i, x := range v.Arr {
			parts[i] = x.String()
		}
		return "[" + strings.Join(parts, " ") + "]"
	default:
		return fmt.Sprintf("%d", v.I)
	}
}
