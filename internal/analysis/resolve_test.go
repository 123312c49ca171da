package analysis

import (
	"strings"
	"testing"
	"unsafe"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/sig"
)

// TestUnresolvableCreationIsAnError gives rank 0 an MPI_Comm_dup of
// the world that rank 1's stream never reaches. The simulator cannot
// complete it, and analysis reports the rank and the call instead of
// waiting.
func TestUnresolvableCreationIsAnError(t *testing.T) {
	dup := core.NewCall(sig.Decoded{Func: mpispec.FCommDup,
		Args: []sig.DecodedValue{{Kind: mpispec.KComm, I: 0}, {Kind: mpispec.KComm, I: 2}}}, 0)
	init := core.NewCall(sig.Decoded{Func: mpispec.FInit}, 0)
	a := &Analysis{Events: [][]Event{
		{{Rank: 0, Index: 0, DecodedCall: init}, {Rank: 0, Index: 1, DecodedCall: dup}},
		{{Rank: 1, Index: 0, DecodedCall: init}},
	}}
	err := a.walk()
	if err == nil || !strings.Contains(err.Error(), "rank 0 call 1 (MPI_Comm_dup)") {
		t.Fatalf("error %v, want one naming rank 0 call 1 (MPI_Comm_dup)", err)
	}
}

// TestEventHoldsTheCallOnce: an event is its rank, its index and the
// decoded call, whose times it does not copy: 40 bytes on a 64-bit
// machine.
func TestEventHoldsTheCallOnce(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Event{}) != 40 {
		t.Fatalf("an event is %d bytes, want 40", unsafe.Sizeof(Event{}))
	}
}
