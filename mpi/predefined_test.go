package mpi

import (
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// TestPredefinedHandlesFitLayout checks that the predefined datatype
// and op tables fit the ranges mpispec reserves, each object at its
// symbolic id's offset, and that created objects' handles lie above
// every range.
func TestPredefinedHandlesFitLayout(t *testing.T) {
	types, ops := 0, 0
	for ; PredefinedType(int64(types)) != nil; types++ {
		if h := PredefinedType(int64(types)).Handle(); h != mpispec.TypeHandleBase+int64(types) {
			t.Errorf("predefined datatype %d has handle %d", types, h)
		}
	}
	for ; PredefinedOp(int64(ops)) != nil; ops++ {
		if h := PredefinedOp(int64(ops)).Handle(); h != mpispec.OpHandleBase+int64(ops) {
			t.Errorf("predefined op %d has handle %d", ops, h)
		}
	}
	if types > mpispec.PredefinedTypes || ops > mpispec.PredefinedOps {
		t.Errorf("%d predefined datatypes and %d ops; mpispec reserves %d and %d",
			types, ops, mpispec.PredefinedTypes, mpispec.PredefinedOps)
	}
	if PredefinedType(-1) != nil || PredefinedOp(-1) != nil {
		t.Error("id -1 names a predefined object")
	}
	ends := []int64{mpispec.CommWorldHandle, mpispec.CommSelfHandle,
		mpispec.TypeHandleBase + mpispec.PredefinedTypes - 1, mpispec.OpHandleBase + mpispec.PredefinedOps - 1}
	for _, h := range ends {
		if h >= hDynamicBase {
			t.Errorf("predefined handle %d is at or above the first created one, %d", h, hDynamicBase)
		}
	}
	if mpispec.TypeHandleBase+mpispec.PredefinedTypes > mpispec.OpHandleBase || mpispec.CommSelfHandle >= mpispec.TypeHandleBase {
		t.Error("mpispec's predefined ranges overlap")
	}
}
