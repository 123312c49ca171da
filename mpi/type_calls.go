package mpi

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// TypeContiguous creates a datatype of count consecutive oldtype
// elements.
func (p *Proc) TypeContiguous(count int, oldtype *Datatype) (*Datatype, error) {
	if oldtype == nil || oldtype.freed {
		return nil, fmt.Errorf("mpi: TypeContiguous with invalid oldtype")
	}
	var nt *Datatype
	args := []Value{vInt(count), vType(oldtype), vType(nil)}
	p.icall(mpispec.FTypeContiguous, args, func() {
		nt = &Datatype{handle: p.newHandle(), name: "contiguous", kind: tkContiguous,
			size: count * oldtype.size, extent: count * oldtype.extent,
			base: oldtype.base, lane: oldtype.lane, oldtype: oldtype, count: count}
		args[2] = vType(nt)
	})
	return nt, nil
}

// TypeVector creates a strided datatype: count blocks of blocklength
// oldtype elements, stride elements apart.
func (p *Proc) TypeVector(count, blocklength, stride int, oldtype *Datatype) (*Datatype, error) {
	if oldtype == nil || oldtype.freed {
		return nil, fmt.Errorf("mpi: TypeVector with invalid oldtype")
	}
	var nt *Datatype
	args := []Value{vInt(count), vInt(blocklength), vInt(stride), vType(oldtype), vType(nil)}
	p.icall(mpispec.FTypeVector, args, func() {
		extent := 0
		if count > 0 {
			extent = ((count-1)*stride + blocklength) * oldtype.extent
		}
		nt = &Datatype{handle: p.newHandle(), name: "vector", kind: tkVector,
			size: count * blocklength * oldtype.size, extent: extent,
			base: oldtype.base, lane: oldtype.lane, oldtype: oldtype, count: count,
			blocks: []int{blocklength}, displs: []int{stride}}
		args[4] = vType(nt)
	})
	return nt, nil
}

// TypeIndexed creates a datatype from per-block lengths and
// displacements (in oldtype elements).
func (p *Proc) TypeIndexed(blocklengths, displacements []int, oldtype *Datatype) (*Datatype, error) {
	if oldtype == nil || oldtype.freed {
		return nil, fmt.Errorf("mpi: TypeIndexed with invalid oldtype")
	}
	if len(blocklengths) != len(displacements) {
		return nil, fmt.Errorf("mpi: TypeIndexed length mismatch")
	}
	var nt *Datatype
	args := []Value{vInt(len(blocklengths)), vIntArray(blocklengths), vIntArray(displacements), vType(oldtype), vType(nil)}
	p.icall(mpispec.FTypeIndexed, args, func() {
		size, maxEnd := 0, 0
		for i, bl := range blocklengths {
			size += bl * oldtype.size
			if end := (displacements[i] + bl) * oldtype.extent; end > maxEnd {
				maxEnd = end
			}
		}
		bl := make([]int, len(blocklengths))
		copy(bl, blocklengths)
		dl := make([]int, len(displacements))
		copy(dl, displacements)
		nt = &Datatype{handle: p.newHandle(), name: "indexed", kind: tkIndexed,
			size: size, extent: maxEnd, base: oldtype.base, lane: oldtype.lane,
			oldtype: oldtype, count: len(blocklengths), blocks: bl, displs: dl}
		args[4] = vType(nt)
	})
	return nt, nil
}

// TypeCreateStruct creates a datatype from blocks of (possibly
// different) types at byte displacements.
func (p *Proc) TypeCreateStruct(blocklengths, displacements []int, types []*Datatype) (*Datatype, error) {
	if len(blocklengths) != len(displacements) || len(blocklengths) != len(types) {
		return nil, fmt.Errorf("mpi: TypeCreateStruct length mismatch")
	}
	handles := make([]int, len(types))
	for i, t := range types {
		if t == nil || t.freed {
			return nil, fmt.Errorf("mpi: TypeCreateStruct with invalid member type %d", i)
		}
		handles[i] = int(t.handle)
	}
	var nt *Datatype
	args := []Value{vInt(len(blocklengths)), vIntArray(blocklengths), vIntArray(displacements), vIntArray(handles), vType(nil)}
	p.icall(mpispec.FTypeCreateStruct, args, func() {
		size, maxEnd := 0, 0
		base := baseByteK
		lane := 1
		for i, bl := range blocklengths {
			size += bl * types[i].size
			if end := displacements[i] + bl*types[i].extent; end > maxEnd {
				maxEnd = end
			}
			if i == 0 {
				base = types[i].base
				lane = types[i].lane
			}
		}
		bl := make([]int, len(blocklengths))
		copy(bl, blocklengths)
		dl := make([]int, len(displacements))
		copy(dl, displacements)
		nt = &Datatype{handle: p.newHandle(), name: "struct", kind: tkStruct,
			size: size, extent: maxEnd, base: base, lane: lane,
			count: len(blocklengths), blocks: bl, displs: dl}
		args[4] = vType(nt)
	})
	return nt, nil
}

// TypeCommit commits a derived datatype for use in communication.
func (p *Proc) TypeCommit(dt *Datatype) error {
	if dt == nil || dt.freed {
		return fmt.Errorf("mpi: TypeCommit on invalid datatype")
	}
	args := []Value{vType(dt)}
	p.icall(mpispec.FTypeCommit, args, func() {
		dt.committed = true
	})
	return nil
}

// TypeFree releases a derived datatype.
func (p *Proc) TypeFree(dt *Datatype) error {
	if dt == nil || dt.freed {
		return fmt.Errorf("mpi: TypeFree on invalid datatype")
	}
	if dt.kind == tkNamed {
		return fmt.Errorf("mpi: cannot free predefined datatype %s", dt.name)
	}
	args := []Value{vType(dt)}
	p.icall(mpispec.FTypeFree, args, func() {
		dt.freed = true
	})
	return nil
}

// TypeSize returns the data size of one element.
func (p *Proc) TypeSize(dt *Datatype) int {
	var n int
	args := []Value{vType(dt), vInt(0)}
	p.icall(mpispec.FTypeSize, args, func() {
		n = dt.size
		args[1].I = int64(n)
	})
	return n
}

// TypeGetExtent returns the lower bound (always 0 here) and extent.
func (p *Proc) TypeGetExtent(dt *Datatype) (lb, extent int) {
	args := []Value{vType(dt), vInt(0), vInt(0)}
	p.icall(mpispec.FTypeGetExtent, args, func() {
		extent = dt.extent
		args[2].I = int64(extent)
	})
	return 0, extent
}

// TypeDup duplicates a datatype.
func (p *Proc) TypeDup(dt *Datatype) (*Datatype, error) {
	if dt == nil || dt.freed {
		return nil, fmt.Errorf("mpi: TypeDup on invalid datatype")
	}
	var nt *Datatype
	args := []Value{vType(dt), vType(nil)}
	p.icall(mpispec.FTypeDup, args, func() {
		cp := *dt
		cp.handle = p.newHandle()
		cp.kind = tkDup
		cp.oldtype = dt
		nt = &cp
		args[1] = vType(nt)
	})
	return nt, nil
}

// OpCreate registers a user-defined reduction.
func (p *Proc) OpCreate(fn func(dst, src []byte, dt *Datatype), commute bool) (*Op, error) {
	if fn == nil {
		return nil, fmt.Errorf("mpi: OpCreate with nil function")
	}
	var op *Op
	args := []Value{vInt(0), vInt(int(b2i(commute))), vOp(nil)}
	p.icall(mpispec.FOpCreate, args, func() {
		op = &Op{handle: p.newHandle(), name: "user_op", combine: fn, commute: commute, user: true}
		args[2] = vOp(op)
	})
	return op, nil
}

// OpFree releases a user-defined reduction.
func (p *Proc) OpFree(op *Op) error {
	if op == nil || !op.user {
		return fmt.Errorf("mpi: OpFree on invalid op")
	}
	args := []Value{vOp(op)}
	p.icall(mpispec.FOpFree, args, func() {})
	return nil
}
