package mpispec

import "strings"

// The predefined-handle layout. Every rank shares the handles of the
// predefined objects: MPI_COMM_WORLD, MPI_COMM_SELF, and a range each
// for the datatypes and the ops. A trace names a predefined datatype or
// op by its handle's offset in its range, and an object a call creates
// by the kind's count plus an id of its own, so the ranges' sizes fix
// every symbolic id.
const (
	CommWorldHandle = 1
	CommSelfHandle  = 2
	TypeHandleBase  = 16
	PredefinedTypes = 16
	OpHandleBase    = 64
	PredefinedOps   = 16
)

// Object describes the object a call creates or frees: a communicator,
// group, datatype or user op. Param is the position of the object's
// parameter, read off Spec by kind and direction.
type Object struct {
	Param int
	Kind  ParamKind // KComm, KGroup, KDatatype or KOp
	Free  bool      // the call frees the object rather than creating it
}

// objects is read off Spec: a call creates the object it returns as an
// Out parameter of an object kind (MPI_Comm_idup's newcomm too, whose
// id is agreed in the background), and frees the object parameter of
// an MPI_*_free call. Freeing is not a parameter property (MPI_Type_commit
// takes its datatype InOut too): MPI names the calls that free objects
// MPI_*_free.
var objects = func() (t [NumFuncs]*Object) {
	for f, s := range Spec {
		free := strings.HasSuffix(s.Name, "_free")
		for i, p := range s.Params {
			switch p.Kind {
			case KComm, KGroup, KDatatype, KOp:
				if p.Dir == Out || free {
					t[f] = &Object{Param: i, Kind: p.Kind, Free: free}
				}
			}
		}
	}
	return t
}()

// ObjectOf returns the object descriptor of f, or nil if f creates and
// frees no communicator, group, datatype or op.
func ObjectOf(f FuncID) *Object {
	if int(f) < len(objects) {
		return objects[f]
	}
	return nil
}
