package mpispec

import "testing"

// TestObjectDescriptors checks the descriptors read off Spec: every
// call that returns a communicator, group, datatype or op creates it,
// MPI_Comm_idup included; the four MPI_*_free calls of those kinds free
// one; and no other function has a descriptor.
func TestObjectDescriptors(t *testing.T) {
	type obj struct {
		param int
		kind  ParamKind
		free  bool
	}
	want := map[FuncID]obj{
		FCommDup: {1, KComm, false}, FCommIdup: {1, KComm, false}, FCommSplit: {3, KComm, false},
		FCommSplitType: {3, KComm, false}, FCommCreate: {2, KComm, false},
		FIntercommCreate: {5, KComm, false}, FIntercommMerge: {2, KComm, false},
		FCartCreate: {5, KComm, false}, FCartSub: {2, KComm, false},
		FCommGroup: {1, KGroup, false}, FGroupIncl: {3, KGroup, false}, FGroupExcl: {3, KGroup, false},
		FGroupUnion: {2, KGroup, false}, FGroupIntersection: {2, KGroup, false}, FGroupDifference: {2, KGroup, false},
		FTypeContiguous: {2, KDatatype, false}, FTypeVector: {4, KDatatype, false}, FTypeIndexed: {4, KDatatype, false},
		FTypeCreateStruct: {4, KDatatype, false}, FTypeDup: {1, KDatatype, false},
		FOpCreate: {2, KOp, false},
		FCommFree: {0, KComm, true}, FGroupFree: {0, KGroup, true}, FTypeFree: {0, KDatatype, true}, FOpFree: {0, KOp, true},
	}
	for id := FuncID(0); id < NumFuncs; id++ {
		o := ObjectOf(id)
		w, has := want[id]
		switch {
		case !has && o != nil:
			t.Errorf("%s has an object descriptor %+v", id.Name(), *o)
		case has && o == nil:
			t.Errorf("%s has no object descriptor", id.Name())
		case has && (obj{o.Param, o.Kind, o.Free}) != w:
			t.Errorf("%s: descriptor %+v, want %+v", id.Name(), *o, w)
		}
	}
	if ObjectOf(NumFuncs) != nil {
		t.Error("an id past the table has a descriptor")
	}
}
