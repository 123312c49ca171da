package sig

import (
	"fmt"
	"strings"
	"unsafe"

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

// Decode reconstructs a call from its signature bytes. The walk reads
// them through a string that shares their memory and does not outlive
// the call: the one field that keeps bytes, a KString, copies them.
func Decode(sigBytes []byte) (Decoded, error) {
	w := walker{in: unsafe.String(unsafe.SliceData(sigBytes), len(sigBytes))}
	return w.call()
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
