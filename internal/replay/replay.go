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
//   - Request arrays resolve symbolic ids positionally in creation
//     order. Two live requests from different per-signature pools can
//     share an id (§3.4.3); if the application ordered them in an
//     array differently from their creation order, the replay pairs
//     slots with the other request of the same id — the message flow
//     is identical, but per-slot status bookkeeping may permute.
//   - MPI_Comm_idup is not supported (its id agreement is deferred);
//     replay traces should use blocking communicator creation.
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
	types map[int64]*mpi.Datatype
	grps  map[int64]*mpi.Group
	ops   map[int64]*mpi.Op
	segs  map[int64]*mpi.Buffer
	stack map[int64]mpi.Ptr
	// live requests: per symbolic id, FIFO of outstanding requests
	// (per-signature pools can reuse an id across distinct pools).
	reqs map[int64][]*mpi.Request
	// persistent requests never leave reqs on completion; track them.
	persistent map[*mpi.Request]bool
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
		p:          p,
		comms:      map[int64]*mpi.Comm{0: p.World(), 1: p.Self()},
		types:      predefTypes(),
		grps:       map[int64]*mpi.Group{},
		ops:        predefOps(),
		segs:       map[int64]*mpi.Buffer{},
		stack:      map[int64]mpi.Ptr{},
		reqs:       map[int64][]*mpi.Request{},
		persistent: map[*mpi.Request]bool{},
	}
}

// Exec replays one decoded call.
func (st *Interp) Exec(c core.DecodedCall) error { return st.exec(c) }

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

func predefTypes() map[int64]*mpi.Datatype {
	list := []*mpi.Datatype{mpi.Byte, mpi.Char, mpi.Int, mpi.Long, mpi.Float, mpi.Double,
		mpi.Short, mpi.Unsigned, mpi.LongLong, mpi.Int8T, mpi.Int16T, mpi.Int32T,
		mpi.Int64T, mpi.UnsignedChar, mpi.DoubleInt}
	m := map[int64]*mpi.Datatype{}
	for i, dt := range list {
		m[int64(i)] = dt
	}
	return m
}

func predefOps() map[int64]*mpi.Op {
	list := []*mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin, mpi.OpProd,
		mpi.OpLand, mpi.OpLor, mpi.OpBand, mpi.OpBor}
	m := map[int64]*mpi.Op{}
	for i, op := range list {
		m[int64(i)] = op
	}
	return m
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

func (st *Interp) comm(v sig.DecodedValue) (*mpi.Comm, error) {
	c, ok := st.comms[v.I]
	if !ok {
		return nil, fmt.Errorf("unknown comm id %d", v.I)
	}
	return c, nil
}

func (st *Interp) datatype(v sig.DecodedValue) (*mpi.Datatype, error) {
	dt, ok := st.types[v.I]
	if !ok {
		return nil, fmt.Errorf("unknown datatype id %d", v.I)
	}
	return dt, nil
}

func (st *Interp) op(v sig.DecodedValue) (*mpi.Op, error) {
	op, ok := st.ops[v.I]
	if !ok {
		return nil, fmt.Errorf("unknown op id %d", v.I)
	}
	return op, nil
}

func (st *Interp) group(v sig.DecodedValue) (*mpi.Group, error) {
	g, ok := st.grps[v.I]
	if !ok {
		return nil, fmt.Errorf("unknown group id %d", v.I)
	}
	return g, nil
}

func (st *Interp) ptr(v sig.DecodedValue) (mpi.Ptr, error) {
	switch v.Sel {
	case 0:
		b, ok := st.segs[v.I]
		if !ok {
			return mpi.NilPtr, fmt.Errorf("unknown segment id %d", v.I)
		}
		return b.Ptr(int(v.Off)), nil
	case 1:
		p, ok := st.stack[v.I]
		if !ok {
			return mpi.NilPtr, fmt.Errorf("unknown stack id %d", v.I)
		}
		return p, nil
	default:
		return mpi.NilPtr, nil
	}
}

// rank resolves a rank-like value against the communicator's rank.
func (st *Interp) rank(v sig.DecodedValue, c *mpi.Comm) int {
	return int(v.Resolve(int64(c.Rank())))
}

func ints(v sig.DecodedValue) []int {
	out := make([]int, len(v.Arr))
	for i, x := range v.Arr {
		out[i] = int(x.I)
	}
	return out
}

// pushReq registers a created request under its symbolic id.
func (st *Interp) pushReq(id int64, r *mpi.Request, persistent bool) {
	st.reqs[id] = append(st.reqs[id], r)
	if persistent {
		st.persistent[r] = true
	}
}

// popReq takes the oldest live request with the symbolic id.
func (st *Interp) popReq(id int64) (*mpi.Request, error) {
	q := st.reqs[id]
	if len(q) == 0 {
		return nil, fmt.Errorf("no live request with id %d", id)
	}
	r := q[0]
	if !st.persistent[r] {
		st.reqs[id] = q[1:]
	}
	return r, nil
}

// popReqs resolves a request-id array positionally (oldest first per
// id), without consuming persistent entries.
func (st *Interp) popReqs(v sig.DecodedValue) ([]*mpi.Request, error) {
	taken := map[int64]int{}
	out := make([]*mpi.Request, len(v.Arr))
	for i, idv := range v.Arr {
		id := idv.I
		if id < 0 {
			continue // null request slot
		}
		q := st.reqs[id]
		k := taken[id]
		if k >= len(q) {
			return nil, fmt.Errorf("request array slot %d: no live request with id %d", i, id)
		}
		out[i] = q[k]
		taken[id] = k + 1
	}
	// Consume the non-persistent ones.
	for id, k := range taken {
		q := st.reqs[id]
		var rest []*mpi.Request
		for j, r := range q {
			if j < k && !st.persistent[r] {
				continue
			}
			rest = append(rest, r)
		}
		st.reqs[id] = rest
	}
	return out, nil
}

// peekReqs resolves a request-id array positionally without consuming
// anything (for Waitany/Waitsome style calls that complete a subset).
func (st *Interp) peekReqs(v sig.DecodedValue) ([]*mpi.Request, error) {
	taken := map[int64]int{}
	out := make([]*mpi.Request, len(v.Arr))
	for i, idv := range v.Arr {
		id := idv.I
		if id < 0 {
			continue // null request slot
		}
		q := st.reqs[id]
		k := taken[id]
		if k >= len(q) {
			return nil, fmt.Errorf("request array slot %d: no live request with id %d", i, id)
		}
		out[i] = q[k]
		taken[id] = k + 1
	}
	return out, nil
}

// consume removes one specific request from its id queue (persistent
// requests stay).
func (st *Interp) consume(id int64, r *mpi.Request) {
	if st.persistent[r] {
		return
	}
	st.dropReq(id, r)
}

// dropReq removes a request from its queue unconditionally.
func (st *Interp) dropReq(id int64, r *mpi.Request) {
	q := st.reqs[id]
	for i, x := range q {
		if x == r {
			st.reqs[id] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}
