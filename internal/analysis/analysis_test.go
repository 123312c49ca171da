package analysis_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/metrics"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

const stencilRanks = 16

func runStencil(t *testing.T, mode uint8) (*pilgrim.TraceFile, *metrics.Collector) {
	t.Helper()
	col := metrics.NewCollector()
	file, _, err := pilgrim.Run(stencilRanks,
		pilgrim.Options{TimingMode: mode, Collector: col},
		workloads.Stencil2D(workloads.StencilConfig{Iters: 5, Points: 16}))
	if err != nil {
		t.Fatal(err)
	}
	return file, col
}

// TestStencilStructuralInvariants checks the analysis of a 16-rank 2D
// stencil trace against properties the workload guarantees by
// construction: a count-symmetric halo-exchange matrix, per-rank MPI
// time within the wall time, and a perfect 1:1 send/recv matching.
func TestStencilStructuralInvariants(t *testing.T) {
	file, _ := runStencil(t, pilgrim.TimingLossy)
	a, err := pilgrim.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}

	if len(a.Sends) == 0 || len(a.Recvs) == 0 {
		t.Fatal("stencil trace produced no p2p operations")
	}

	// Halo exchange: every src→dst channel has the mirror dst→src
	// channel with the same message count.
	m := a.Matrix
	for s := 0; s < m.Ranks; s++ {
		for d := 0; d < m.Ranks; d++ {
			if m.Count[s][d] != m.Count[d][s] {
				t.Errorf("matrix not count-symmetric: [%d][%d]=%d, [%d][%d]=%d",
					s, d, m.Count[s][d], d, s, m.Count[d][s])
			}
		}
	}
	if m.TotalMsgs() == 0 || m.TotalBytes() == 0 {
		t.Fatal("empty communication matrix")
	}

	// Time sanity: per-rank MPI time cannot exceed the wall time (rank
	// events are sequential on a recovered timeline that starts at 0).
	wall := a.WallNs()
	if wall <= 0 {
		t.Fatal("non-positive wall time")
	}
	for r, tot := range a.Profile.RankTotalNs {
		if tot > wall {
			t.Errorf("rank %d MPI time %d exceeds wall %d", r, tot, wall)
		}
	}

	// Matching: every send pairs with exactly one recv and vice versa.
	if len(a.Matches) != len(a.Sends) || len(a.Matches) != len(a.Recvs) {
		t.Errorf("matched %d of %d sends / %d recvs", len(a.Matches), len(a.Sends), len(a.Recvs))
	}
	if len(a.UnmatchedSends) != 0 || len(a.UnmatchedRecvs) != 0 {
		t.Errorf("%d unmatched sends, %d unmatched recvs", len(a.UnmatchedSends), len(a.UnmatchedRecvs))
	}
	seen := map[any]bool{}
	for _, mt := range a.Matches {
		if seen[mt.Send] || seen[mt.Recv] {
			t.Fatal("an op appears in more than one match")
		}
		seen[mt.Send], seen[mt.Recv] = true, true
		if mt.Send.Bytes > mt.Recv.Capacity {
			t.Errorf("matched send of %dB into recv capacity %dB", mt.Send.Bytes, mt.Recv.Capacity)
		}
		if mt.Send.Dst != mt.Recv.Rank || mt.Send.Rank != mt.Recv.Src {
			t.Errorf("match endpoints disagree: send %d→%d vs recv %d←%d",
				mt.Send.Rank, mt.Send.Dst, mt.Recv.Rank, mt.Recv.Src)
		}
	}

	// The cartesian comm's membership must resolve on every rank.
	for r := 0; r < file.NumRanks; r++ {
		found := false
		for id := int64(2); id < 8 && !found; id++ {
			if g := a.CommGroup(r, id); len(g) == stencilRanks {
				found = true
			}
		}
		if !found {
			t.Errorf("rank %d: cartesian communicator membership not resolved", r)
		}
	}
}

// TestStencilMetricsParity cross-checks the analysis-side matrix
// against the runtime's live per-rank counters: both count messages
// and payload bytes at send post time, so they must agree exactly.
func TestStencilMetricsParity(t *testing.T) {
	for _, mode := range []uint8{pilgrim.TimingAggregated, pilgrim.TimingLossy} {
		file, col := runStencil(t, mode)
		a, err := pilgrim.Analyze(file)
		if err != nil {
			t.Fatal(err)
		}
		msgs, bytes := a.Matrix.SentMsgsByRank(), a.Matrix.SentBytesByRank()
		for r := 0; r < stencilRanks; r++ {
			label := strconv.Itoa(r)
			if live := col.MsgsSent.With(label).Load(); msgs[r] != live {
				t.Errorf("mode %d rank %d: matrix says %d msgs, metrics counted %d", mode, r, msgs[r], live)
			}
			if live := col.BytesSent.With(label).Load(); bytes[r] != live {
				t.Errorf("mode %d rank %d: matrix says %d bytes, metrics counted %d", mode, r, bytes[r], live)
			}
		}
	}
}

// TestStencilPerfettoExport validates the Chrome trace-event JSON:
// parseable, one named track per rank, and one flow-event pair per
// matched message.
func TestStencilPerfettoExport(t *testing.T) {
	file, _ := runStencil(t, pilgrim.TimingLossy)
	a, err := pilgrim.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			ID   int            `json:"id"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}

	tracks := map[int]bool{}
	flowStarts, flowEnds := map[int]int{}, map[int]int{}
	complete := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				tracks[ev.Tid] = true
			}
		case "X":
			complete++
			if ev.Tid < 0 || ev.Tid >= stencilRanks {
				t.Fatalf("complete event on track %d, want 0..%d", ev.Tid, stencilRanks-1)
			}
			if ev.Dur < 0 {
				t.Fatalf("negative duration %f", ev.Dur)
			}
		case "s":
			flowStarts[ev.ID]++
		case "f":
			flowEnds[ev.ID]++
		}
	}
	if len(tracks) != stencilRanks {
		t.Errorf("%d named tracks, want %d", len(tracks), stencilRanks)
	}
	if complete == 0 {
		t.Fatal("no complete events")
	}
	if len(flowStarts) != len(a.Matches) {
		t.Errorf("%d flow starts for %d matched pairs", len(flowStarts), len(a.Matches))
	}
	for id, n := range flowStarts {
		if n != 1 || flowEnds[id] != 1 {
			t.Fatalf("flow id %d has %d starts / %d ends", id, n, flowEnds[id])
		}
	}
}

// TestStencilCriticalPath sanity-checks the longest-path estimate:
// non-empty, chronologically ordered, ending at the latest event.
func TestStencilCriticalPath(t *testing.T) {
	file, _ := runStencil(t, pilgrim.TimingLossy)
	a, err := pilgrim.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	path := a.CriticalPath()
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	// Every consecutive pair must be joined by a real dependency edge:
	// program order on one rank, or a matched message. (Recovered
	// timestamps carry independent per-signature error, so strict time
	// monotonicity is not an invariant; the graph structure is.)
	msgEdge := map[[4]int]bool{}
	for _, m := range a.Matches {
		msgEdge[[4]int{m.Send.Rank, m.Send.Index, m.Recv.Rank, m.Recv.DoneIndex}] = true
	}
	for i := 1; i < len(path); i++ {
		prev, cur := path[i-1], path[i]
		if cur.ViaMsg {
			if !msgEdge[[4]int{prev.Rank, prev.Index, cur.Rank, cur.Index}] {
				t.Fatalf("step %d claims a message edge %v→%v that matches no pair",
					i, prev, cur)
			}
		} else if cur.Rank != prev.Rank || cur.Index != prev.Index+1 {
			t.Fatalf("step %d is not the program-order successor of step %d", i, i-1)
		}
	}
	if got, want := path[len(path)-1].TEnd, a.WallNs(); got != want {
		t.Errorf("critical path ends at %d, wall is %d", got, want)
	}
	if path[0].Index != 0 {
		t.Errorf("critical path starts mid-stream at call %d of rank %d", path[0].Index, path[0].Rank)
	}
}

// TestSplitAndWildcardAnalysis exercises the comm resolver on
// CommSplit subcommunicators and the extractor on AnySource/AnyTag
// receives resolved from recorded statuses.
func TestSplitAndWildcardAnalysis(t *testing.T) {
	const n = 8
	file, _, err := pilgrim.Run(n, pilgrim.Options{TimingMode: pilgrim.TimingLossy}, func(p *mpi.Proc) {
		if err := p.Init(); err != nil {
			panic(err)
		}
		// Even/odd subcommunicators of 4 ranks each; both get symbolic
		// id agreement across disjoint groups.
		sub, err := p.CommSplit(p.World(), p.Rank()%2, p.Rank())
		if err != nil {
			panic(err)
		}
		buf := p.Alloc(64)
		me, sz := sub.Rank(), sub.Size()
		// Ring within the subcomm: send to the next, receive from
		// anyone (wildcard source and tag).
		var st mpi.Status
		if me%2 == 0 {
			if err := p.Send(buf.Ptr(0), 4, mpi.Int, (me+1)%sz, 7, sub); err != nil {
				panic(err)
			}
			if err := p.Recv(buf.Ptr(32), 4, mpi.Int, (me+sz-1)%sz, 7, sub, &st); err != nil {
				panic(err)
			}
		} else {
			if err := p.Recv(buf.Ptr(32), 4, mpi.Int, mpi.AnySource, mpi.AnyTag, sub, &st); err != nil {
				panic(err)
			}
			if err := p.Send(buf.Ptr(0), 4, mpi.Int, (me+1)%sz, 7, sub); err != nil {
				panic(err)
			}
		}
		buf.Free()
		if err := p.Finalize(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pilgrim.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) != len(a.Sends) || len(a.UnmatchedRecvs) != 0 {
		t.Fatalf("matched %d of %d sends, %d unmatched recvs",
			len(a.Matches), len(a.Sends), len(a.UnmatchedRecvs))
	}
	// Wildcards must resolve to the even-rank sender one ring slot
	// back in the same parity class.
	for _, m := range a.Matches {
		if m.Recv.Src != m.Send.Rank {
			t.Fatalf("recv source %d, sender was %d", m.Recv.Src, m.Send.Rank)
		}
		if m.Send.Rank%2 != m.Recv.Rank%2 {
			t.Fatalf("message crossed parity classes: %d→%d", m.Send.Rank, m.Recv.Rank)
		}
		if m.Send.Bytes != 16 {
			t.Fatalf("send bytes %d, want 16", m.Send.Bytes)
		}
	}
	// Each subcomm id must resolve to a 4-member group of one parity.
	for r := 0; r < n; r++ {
		found := false
		for id := int64(2); id < 6 && !found; id++ {
			if g := a.CommGroup(r, id); len(g) == 4 {
				found = true
				for _, w := range g {
					if w%2 != r%2 {
						t.Fatalf("rank %d subcomm contains rank %d of other parity", r, w)
					}
				}
			}
		}
		if !found {
			t.Errorf("rank %d: subcomm membership not resolved", r)
		}
	}
}

// TestAggregatedModeAnalyze ensures aggregated-mode traces (no
// per-call timing) still analyze: synthesized timelines, full
// matching, and a nonzero profile.
func TestAggregatedModeAnalyze(t *testing.T) {
	file, _ := runStencil(t, pilgrim.TimingAggregated)
	a, err := pilgrim.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) != len(a.Sends) {
		t.Errorf("matched %d of %d sends", len(a.Matches), len(a.Sends))
	}
	if a.WallNs() <= 0 {
		t.Error("synthesized wall time is zero")
	}
	if len(a.Profile.Funcs) == 0 {
		t.Error("empty profile")
	}
}

// TestMatchWithinCommunicator sends with one tag on MPI_COMM_WORLD and
// then on a duplicate of it, and receives in the other order. MPI
// matches within a communicator, so each receive pairs with the send
// on its own communicator: one int with one int, two with two.
func TestMatchWithinCommunicator(t *testing.T) {
	file, _, err := pilgrim.Run(2, pilgrim.Options{}, func(p *mpi.Proc) {
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		must(p.Init())
		w, buf := p.World(), p.Alloc(64)
		dup, err := p.CommDup(w)
		must(err)
		if p.Rank() == 0 {
			r1, err := p.Isend(buf.Ptr(0), 1, mpi.Int, 1, 0, w)
			must(err)
			r2, err := p.Isend(buf.Ptr(8), 2, mpi.Int, 1, 0, dup)
			must(err)
			must(p.Waitall([]*mpi.Request{r1, r2}, make([]mpi.Status, 2)))
		} else {
			must(p.Recv(buf.Ptr(0), 2, mpi.Int, 0, 0, dup, nil))
			must(p.Recv(buf.Ptr(16), 1, mpi.Int, 0, 0, w, nil))
		}
		must(p.Finalize())
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := pilgrim.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Matches) != 2 || len(a.UnmatchedSends)+len(a.UnmatchedRecvs) != 0 {
		t.Fatalf("%d matches, %d sends and %d receives unmatched; want 2, 0, 0",
			len(a.Matches), len(a.UnmatchedSends), len(a.UnmatchedRecvs))
	}
	for _, m := range a.Matches {
		if m.Send.CommID != m.Recv.CommID || m.Send.Count != m.Recv.Count {
			t.Errorf("send of %d on comm %d matched the receive of %d on comm %d",
				m.Send.Count, m.Send.CommID, m.Recv.Count, m.Recv.CommID)
		}
	}
}

// TestAnalyzeSalvagedBeforeSplit analyzes a cg trace salvaged from a
// crash of rank 5 at its MPI_Comm_split, the workload's second call.
// No rank completed the split, so each stream holds its MPI_Init only:
// the analysis finishes, with no communicator to create and no message.
func TestAnalyzeSalvagedBeforeSplit(t *testing.T) {
	const n = 16
	body, err := workloads.Get("cg", 2, n)
	if err != nil {
		t.Fatal(err)
	}
	crash := &mpi.FaultPlan{Faults: []mpi.Fault{{Kind: mpi.FaultCrash, Rank: 5, AtCall: 2}}}
	file, _, err := pilgrim.RunSim(n, pilgrim.Options{}, mpi.Options{FaultPlan: crash}, body)
	if err == nil || file == nil || file.Salvage == nil {
		t.Fatalf("want a salvaged trace and the crash, got file %v, error %v", file != nil, err)
	}
	a, err := pilgrim.Analyze(file)
	if err != nil {
		t.Fatal(err)
	}
	for r, evs := range a.Events {
		if len(evs) != 1 || evs[0].Func != mpispec.FInit {
			t.Errorf("rank %d: %d events, want its MPI_Init alone", r, len(evs))
		}
	}
	if len(a.Sends)+len(a.Recvs) != 0 {
		t.Errorf("%d sends and %d receives, want none", len(a.Sends), len(a.Recvs))
	}
}
