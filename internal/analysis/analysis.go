// Package analysis is Pilgrim's post-mortem trace analysis subsystem:
// it decodes a compressed trace back into per-rank event timelines and
// computes derived views on top of them — a rank×rank communication
// matrix, a per-function time profile with load-imbalance factors,
// late-sender/late-receiver diagnosis over matched point-to-point
// pairs, a longest-path critical-path estimate, and exporters to
// Chrome trace-event JSON (Perfetto-loadable) and CSV.
//
// Wall-clock times are the ones core.DecodeRank gives each call: in
// lossy mode recovered from the interval and duration grammars
// (relative error ≤ base−1, see internal/timing); in aggregated mode
// the CST mean durations laid end to end per rank, so within-rank
// ordering and durations are meaningful while inter-rank alignment is
// approximate.
//
// Peer ranks in signatures are symbolic (relative to the caller's rank
// in the call's communicator), a communicator id is agreed across
// ranks but does not name a membership, and a datatype id names a
// layout only on the rank that created it. So the package runs every
// rank's object calls (those that create or free a communicator,
// group, datatype or op) on a fresh simulated world, the one authority
// on objects, and takes each communicator and datatype from it at the
// call that uses it: a communicator's members resolve peers and its
// context keys message channels, and a datatype's size gives a
// message's payload bytes.
package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/replay"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/mpi"
)

// Event is one decoded call of one rank at its place in the rank's
// stream, with the times DecodeRank resolved (nanoseconds since the
// rank's first call). It is 40 bytes on a 64-bit machine.
type Event struct {
	Rank  int
	Index int // position in the rank's call stream
	core.DecodedCall
}

// Duration returns the call's wall-clock duration.
func (e Event) Duration() int64 { return e.TEnd - e.TStart }

// Analysis holds every derived view of one trace.
type Analysis struct {
	File   *trace.File
	Events [][]Event // per rank, in call order

	Sends []*SendOp
	Recvs []*RecvOp

	Matches        []Match
	UnmatchedSends []*SendOp
	UnmatchedRecvs []*RecvOp

	Matrix  *CommMatrix
	Profile *Profile
	Late    LateStats

	comms []map[int64]*mpi.Comm // per rank: comm id → the communicator
}

// Analyze decodes the whole trace and computes every derived view.
// Grammar decode fans out over a worker pool; each rank writes only
// its own slot, so the result is identical to the sequential order.
// The sends and receives come from one walk per rank on a fresh
// simulated world.
func Analyze(f *trace.File) (*Analysis, error) {
	a := &Analysis{File: f}
	a.Events = make([][]Event, f.NumRanks)
	errs := make([]error, f.NumRanks)
	par.For(f.NumRanks, runtime.GOMAXPROCS(0), func(r int) {
		calls, err := core.DecodeRank(f, r)
		if err != nil {
			errs[r] = fmt.Errorf("analysis: decode rank %d: %w", r, err)
			return
		}
		evs := make([]Event, len(calls))
		for i, c := range calls {
			evs[i] = Event{Rank: r, Index: i, DecodedCall: c}
		}
		a.Events[r] = evs
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	if err := a.walk(); err != nil {
		return nil, err
	}
	a.matchP2P()
	a.Matrix = buildMatrix(f.NumRanks, a.Sends)
	a.Profile = buildProfile(a.Events)
	a.Late = lateStats(a.Matches)
	return a, nil
}

// CommGroup returns the world ranks of a communicator as resolved from
// rank r's stream (comm rank i ↔ world rank group[i]), or nil if no
// call of that rank names the comm id.
func (a *Analysis) CommGroup(rank int, commID int64) []int {
	if rank < 0 || rank >= len(a.comms) {
		return nil
	}
	if cm, ok := a.comms[rank][commID]; ok {
		return cm.GroupRanks()
	}
	return nil
}

// walk runs each rank's events through an extractor on a fresh
// simulated world: a replay.Interp executes the calls
// mpispec.ObjectOf says create or free an object, and each send and
// receive takes its communicator and datatype from it. The sends and
// receives concatenate in rank order. A stream that cannot complete a
// creation, such as a salvaged one whose peers stopped before it, is
// reported at the lowest rank left blocked: the simulator's deadlock
// watchdog halts the run.
func (a *Analysis) walk() error {
	n := len(a.Events)
	if n == 0 {
		return nil
	}
	a.comms = make([]map[int64]*mpi.Comm, n)
	sends := make([][]*SendOp, n)
	recvs := make([][]*RecvOp, n)
	at := make([]int, n) // the call each rank has reached
	errs := make([]error, n)
	runErr := mpi.RunOpt(n, mpi.Options{}, func(p *mpi.Proc) {
		r := p.Rank()
		x := &extractor{in: replay.NewInterp(p), comms: map[int64]*mpi.Comm{}}
		for i, ev := range a.Events[r] {
			at[r] = i
			if err := x.step(ev); err != nil {
				// The rank stops here without revoking the world, so
				// every rank reaches its own first error on every
				// schedule and the lowest one is reported.
				errs[r] = fmt.Errorf("analysis: rank %d call %d (%s): %w", r, i, ev.Func.Name(), err)
				return
			}
		}
		at[r] = len(a.Events[r])
		a.comms[r], sends[r], recvs[r] = x.comms, x.sends, x.recvs
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	if runErr != nil {
		cause := runErr.Error()
		if re, ok := runErr.(*mpi.RunError); ok && re.Cause != nil {
			cause = re.Cause.Error()
		}
		cause, _, _ = strings.Cut(cause, "\n")
		for r, i := range at {
			if evs := a.Events[r]; i < len(evs) {
				return fmt.Errorf("analysis: rank %d call %d (%s): unresolvable communicator rendezvous: %s",
					r, i, evs[i].Func.Name(), cause)
			}
		}
		return fmt.Errorf("analysis: resolving communicators: %s", cause)
	}
	for r := range n {
		a.Sends = append(a.Sends, sends[r]...)
		a.Recvs = append(a.Recvs, recvs[r]...)
	}
	return nil
}

// WallNs returns the trace's wall time: the latest event end across
// all ranks (timelines start at 0 per rank).
func (a *Analysis) WallNs() int64 {
	var wall int64
	for _, evs := range a.Events {
		if n := len(evs); n > 0 && evs[n-1].TEnd > wall {
			wall = evs[n-1].TEnd
		}
	}
	return wall
}

// firstErr returns the lowest-rank error of a parallel stage, keeping
// error identity independent of goroutine scheduling.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sortOps orders ops deterministically for matching: by receiver (or
// sender) stream position.
func sortOps[T interface{ key() (int, int) }](ops []T) {
	sort.SliceStable(ops, func(i, j int) bool {
		ri, ii := ops[i].key()
		rj, ij := ops[j].key()
		if ri != rj {
			return ri < rj
		}
		return ii < ij
	})
}
