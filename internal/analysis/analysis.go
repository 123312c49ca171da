// Package analysis is Pilgrim's post-mortem trace analysis subsystem:
// it decodes a compressed trace back into per-rank event timelines and
// computes derived views on top of them — a rank×rank communication
// matrix, a per-function time profile with load-imbalance factors,
// late-sender/late-receiver diagnosis over matched point-to-point
// pairs, a longest-path critical-path estimate, and exporters to
// Chrome trace-event JSON (Perfetto-loadable) and CSV.
//
// Wall-clock times come from the trace's timing section: in lossy mode
// every call's start and duration are recovered from the interval and
// duration grammars (relative error ≤ base−1, see internal/timing); in
// aggregated mode each rank's timeline is synthesized by accumulating
// the CST mean durations, so within-rank ordering and durations are
// meaningful while inter-rank alignment is approximate.
//
// Peer ranks in signatures are symbolic (relative to the caller's rank
// in the call's communicator), so the package re-derives communicator
// membership by resolving communicator-creating collectives across all
// rank streams in lockstep — the analysis-side mirror of the id
// agreement the tracer performs at record time.
package analysis

import (
	"fmt"
	"runtime"
	"sort"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// Event is one decoded call of one rank with resolved wall-clock
// times (nanoseconds since the rank's first call).
type Event struct {
	Rank   int
	Index  int // position in the rank's call stream
	TStart int64
	TEnd   int64
	Call   core.DecodedCall
}

// Func returns the event's MPI function id.
func (e Event) Func() mpispec.FuncID { return e.Call.Func }

// Duration returns the call's wall-clock duration.
func (e Event) Duration() int64 { return e.TEnd - e.TStart }

// EachEvent streams one rank's events in call order, resolving times
// per the trace's timing mode. The callback's error aborts the walk.
func EachEvent(f *trace.File, rank int, yield func(Event) error) error {
	calls, err := core.DecodeRank(f, rank)
	if err != nil {
		return err
	}
	var clock int64
	for i, c := range calls {
		ev := Event{Rank: rank, Index: i, Call: c}
		if f.TimingMode == trace.TimingLossy {
			ev.TStart, ev.TEnd = c.TStart, c.TEnd
		} else {
			ev.TStart = clock
			ev.TEnd = clock + c.AvgDuration
			clock = ev.TEnd
		}
		if err := yield(ev); err != nil {
			return err
		}
	}
	return nil
}

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

	comms []map[int64]*commView // per rank: comm id → resolved view
}

// Analyze decodes the whole trace and computes every derived view.
// The per-rank stages (grammar decode, event timeline build, p2p op
// extraction) fan out over a worker pool; each writes only its own
// rank's slot, so the result is identical to the sequential order.
func Analyze(f *trace.File) (*Analysis, error) {
	a := &Analysis{File: f}
	a.Events = make([][]Event, f.NumRanks)
	perRank := make([][]core.DecodedCall, f.NumRanks)
	errs := make([]error, f.NumRanks)
	workers := runtime.GOMAXPROCS(0)
	par.For(f.NumRanks, workers, func(r int) {
		calls, err := core.DecodeRank(f, r)
		if err != nil {
			errs[r] = fmt.Errorf("analysis: decode rank %d: %w", r, err)
			return
		}
		perRank[r] = calls
		evs := make([]Event, len(calls))
		var clock int64
		for i, c := range calls {
			evs[i] = Event{Rank: r, Index: i, Call: c}
			if f.TimingMode == trace.TimingLossy {
				evs[i].TStart, evs[i].TEnd = c.TStart, c.TEnd
			} else {
				evs[i].TStart = clock
				evs[i].TEnd = clock + c.AvgDuration
				clock = evs[i].TEnd
			}
		}
		a.Events[r] = evs
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}

	comms, err := resolveComms(perRank)
	if err != nil {
		return nil, err
	}
	a.comms = comms

	// Extraction is per-rank independent (each rank reads only its own
	// events and comm views); the sends/recvs concatenate in rank order
	// afterward so downstream matching sees the sequential layout.
	sendsBy := make([][]*SendOp, f.NumRanks)
	recvsBy := make([][]*RecvOp, f.NumRanks)
	par.For(f.NumRanks, workers, func(r int) {
		sends, recvs, err := extractRank(a.Events[r], comms[r])
		if err != nil {
			errs[r] = fmt.Errorf("analysis: rank %d: %w", r, err)
			return
		}
		sendsBy[r], recvsBy[r] = sends, recvs
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for r := 0; r < f.NumRanks; r++ {
		a.Sends = append(a.Sends, sendsBy[r]...)
		a.Recvs = append(a.Recvs, recvsBy[r]...)
	}

	a.matchP2P()
	a.Matrix = buildMatrix(f.NumRanks, a.Sends)
	a.Profile = buildProfile(a.Events)
	a.Late = lateStats(a.Matches)
	return a, nil
}

// CommGroup returns the world ranks of a communicator as resolved from
// rank r's stream (comm rank i ↔ world rank group[i]), or nil if the
// comm id is unknown on that rank.
func (a *Analysis) CommGroup(rank int, commID int64) []int {
	if rank < 0 || rank >= len(a.comms) {
		return nil
	}
	if v, ok := a.comms[rank][commID]; ok {
		return v.group
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
