// Package replay re-executes a decoded Pilgrim trace against the
// simulated MPI runtime. It realizes the paper's future-work
// "mini-app generator": a proxy program with the same communication
// pattern as the traced application. Replaying a trace under a fresh
// tracer and comparing the two trace files is the strongest
// end-to-end losslessness check in this repository.
//
// Fidelity notes:
//
//   - Relative ranks are resolved against the replayed communicator's
//     actual rank, so communicator-dependent peers come out right.
//   - Buffers are materialized per symbolic segment id before replay
//     (in id order), matching the original allocation order for
//     programs that allocate before communicating and free at exit.
//   - Waitany/Waitsome/Test* are replayed by waiting for exactly the
//     requests the trace says completed (a Waitall over that subset):
//     the message flow is reproduced, the polling pattern is not.
//   - Symbolic request ids resolve through sig.Window, which analysis
//     shares. Two live requests from different per-signature pools can
//     share an id (§3.4.3). An array resolves positionally in creation
//     order; if the application ordered such requests differently, the
//     replay pairs slots with the other request of the same id — the
//     message flow is identical, but per-slot status bookkeeping may
//     permute. A single MPI_Start of an id that two live persistent
//     requests share is ambiguous in the trace; both readers take the
//     oldest.
//   - An MPI_Comm_idup records no id for its communicator: the tracer
//     agrees it in the background, and the trace first names it where
//     the communicator is used. The interpreter creates the
//     communicator at the idup, puts its request in the window for the
//     completion call that waits for it, and binds it to the first id
//     no creation bound. Two idup communicators in flight at once bind
//     in creation order.
//   - An MPI_Type_create_struct's member types are a plain int array
//     in the trace, so they keep their raw handles rather than symbolic
//     ids. A predefined member's handle is the same on every run; a
//     derived member's names nothing on a replay, so both readers
//     (replay and analysis) refuse such a struct.
package replay

import (
	"fmt"
	"runtime"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/mpi"
)

// Interp is the per-rank replay interpreter: it resolves symbolic ids
// (communicators, datatypes, groups, ops, buffers, requests) back to
// live runtime objects and executes decoded calls. It is exported so
// generated mini-apps (internal/genapp) can drive it directly.
type Interp struct {
	p     *mpi.Proc
	comms map[int64]*mpi.Comm
	idups []idup // MPI_Comm_idup communicators no id is bound to yet
	types map[int64]*mpi.Datatype
	grps  map[int64]*mpi.Group
	ops   map[int64]*mpi.Op
	segs  map[int64]*mpi.Buffer
	stack map[int64]mpi.Ptr
	reqs  sig.Window[*mpi.Request]
}

// Body builds the SPMD body that replays the trace. It decodes each
// rank's stream lazily inside the rank's goroutine.
func Body(f *trace.File) func(p *mpi.Proc) {
	return func(p *mpi.Proc) {
		if err := Rank(f, p); err != nil {
			panic(err)
		}
	}
}

// DecodeAll decodes every rank's call stream over a bounded worker
// pool. Grammar expansion is the replay's CPU-heavy prefix and is
// independent per rank, so decoding up front on GOMAXPROCS workers
// beats leaving it to the simulator's rank goroutines, whose real
// concurrency is at the mercy of simulation synchronization.
func DecodeAll(f *trace.File) ([][]core.DecodedCall, error) {
	perRank := make([][]core.DecodedCall, f.NumRanks)
	errs := make([]error, f.NumRanks)
	par.For(f.NumRanks, runtime.GOMAXPROCS(0), func(r int) {
		perRank[r], errs[r] = core.DecodeRank(f, r)
	})
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replay: decode rank %d: %w", r, err)
		}
	}
	return perRank, nil
}

// Run replays a trace on a fresh simulated world of the same size,
// pre-decoding every rank in parallel.
func Run(f *trace.File, simOpts mpi.Options) error {
	perRank, err := DecodeAll(f)
	if err != nil {
		return err
	}
	return mpi.RunOpt(f.NumRanks, simOpts, func(p *mpi.Proc) {
		if err := RankCalls(perRank[p.Rank()], p); err != nil {
			panic(err)
		}
	})
}

// NewInterp builds a fresh interpreter for one rank.
func NewInterp(p *mpi.Proc) *Interp {
	return &Interp{
		p:     p,
		comms: map[int64]*mpi.Comm{0: p.World(), 1: p.Self()},
		types: map[int64]*mpi.Datatype{},
		grps:  map[int64]*mpi.Group{},
		ops:   map[int64]*mpi.Op{},
		segs:  map[int64]*mpi.Buffer{},
		stack: map[int64]mpi.Ptr{},
	}
}

// idup is an MPI_Comm_idup's communicator and its request, nil once a
// completion call waited for it.
type idup struct {
	comm *mpi.Comm
	req  *mpi.Request
}

// Exec replays one decoded call.
func (st *Interp) Exec(c core.DecodedCall) error { return st.exec(c) }

// Comm returns the communicator bound to symbolic id. An id no
// creation bound names the oldest MPI_Comm_idup communicator not bound
// yet (see the fidelity notes); it is waited for here if no completion
// call has.
func (st *Interp) Comm(id int64) (*mpi.Comm, error) {
	if cm, ok := st.comms[id]; ok {
		return cm, nil
	}
	if id < 0 || len(st.idups) == 0 {
		return nil, fmt.Errorf("unknown comm id %d", id)
	}
	d := st.idups[0]
	st.idups = st.idups[1:]
	if d.req != nil {
		if err := st.p.Wait(d.req, nil); err != nil {
			return nil, err
		}
	}
	st.comms[id] = d.comm
	return d.comm, nil
}

// Datatype returns the datatype bound to symbolic id: a predefined one,
// or the one the creation that bound id made.
func (st *Interp) Datatype(id int64) (*mpi.Datatype, error) {
	if dt := mpi.PredefinedType(id); dt != nil {
		return dt, nil
	}
	if dt, ok := st.types[id]; ok {
		return dt, nil
	}
	return nil, fmt.Errorf("unknown datatype id %d", id)
}

// Prealloc materializes the buffers a call stream references; call it
// once before the first Exec.
func (st *Interp) Prealloc(calls []core.DecodedCall) { st.preallocate(calls) }

// Rank replays one rank's stream on an existing Proc, decoding it
// first.
func Rank(f *trace.File, p *mpi.Proc) error {
	calls, err := core.DecodeRank(f, p.Rank())
	if err != nil {
		return err
	}
	return RankCalls(calls, p)
}

// RankCalls replays one rank's pre-decoded stream on an existing Proc.
func RankCalls(calls []core.DecodedCall, p *mpi.Proc) error {
	st := NewInterp(p)
	st.preallocate(calls)
	for i, c := range calls {
		if err := st.exec(c); err != nil {
			return fmt.Errorf("replay rank %d call %d (%s): %w", p.Rank(), i, c.Decoded, err)
		}
	}
	return nil
}

// preallocate materializes every heap segment and stack variable the
// stream references, sized to its largest use, in symbolic-id order so
// a re-trace assigns the same ids.
func (st *Interp) preallocate(calls []core.DecodedCall) {
	segSize := map[int64]uint64{}
	stackIDs := map[int64]bool{}
	for _, c := range calls {
		spec := mpispec.Spec[c.Func]
		for i, a := range c.Args {
			if a.Kind != mpispec.KPtr || i >= len(spec.Params) {
				continue
			}
			switch a.Sel {
			case 0: // heap
				// Extent estimate: offset + a generous payload bound.
				need := a.Off + 1<<16
				if segSize[a.I] < need {
					segSize[a.I] = need
				}
			case 1: // stack
				stackIDs[a.I] = true
			}
		}
	}
	for id := int64(0); id < int64(len(segSize))+64; id++ {
		if size, ok := segSize[id]; ok {
			st.segs[id] = st.p.Alloc(int(size))
		}
	}
	for id := range stackIDs {
		st.stack[id] = st.p.StackVar(1 << 12)
	}
}

// --- argument resolution ------------------------------------------------------

// args resolves one call's arguments by position. It keeps the first
// argument that fails to resolve: after it every accessor returns a
// zero value, and ok reports false.
type args struct {
	st  *Interp
	v   []sig.DecodedValue
	err error
	obj any // the object a creating call made
}

func (a *args) ok() bool { return a.err == nil }

// lookup resolves argument i's symbolic id in m.
func lookup[T any](a *args, m map[int64]T, i int, what string) T {
	x, found := m[a.v[i].I]
	if !found && a.err == nil {
		a.err = fmt.Errorf("unknown %s id %d", what, a.v[i].I)
	}
	return x
}

func (a *args) group(i int) *mpi.Group { return lookup(a, a.st.grps, i, "group") }
func (a *args) num(i int) int          { return int(a.v[i].I) }
func (a *args) id(i int) int64         { return a.v[i].I }
func (a *args) flag(i int) bool        { return a.v[i].I != 0 }

func (a *args) comm(i int) *mpi.Comm {
	cm, err := a.st.Comm(a.v[i].I)
	if a.err == nil {
		a.err = err
	}
	return cm
}

func (a *args) dt(i int) *mpi.Datatype {
	dt, err := a.st.Datatype(a.v[i].I)
	if a.err == nil {
		a.err = err
	}
	return dt
}

func (a *args) op(i int) *mpi.Op {
	if op := mpi.PredefinedOp(a.v[i].I); op != nil {
		return op
	}
	return lookup(a, a.st.ops, i, "op")
}

func (a *args) ints(i int) []int {
	out := make([]int, len(a.v[i].Arr))
	for k, x := range a.v[i].Arr {
		out[k] = int(x.I)
	}
	return out
}

func (a *args) bools(i int) []bool {
	out := make([]bool, len(a.v[i].Arr))
	for k, x := range a.v[i].Arr {
		out[k] = x.I != 0
	}
	return out
}

// rel resolves a rank, tag, color or key recorded relative to the
// caller's rank in cm.
func (a *args) rel(i int, cm *mpi.Comm) int {
	if cm == nil {
		return 0
	}
	return int(a.v[i].Resolve(int64(cm.Rank())))
}

// ptr resolves a buffer: a heap segment plus offset, a stack variable,
// or the null pointer.
func (a *args) ptr(i int) mpi.Ptr {
	v := a.v[i]
	switch v.Sel {
	case 0:
		if b := lookup(a, a.st.segs, i, "segment"); b != nil {
			return b.Ptr(int(v.Off))
		}
	case 1:
		return lookup(a, a.st.stack, i, "stack")
	}
	return mpi.NilPtr
}
