package replay_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/analysis"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/mpi"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.pilgrim from the kitchen-sink and completions programs")

// kitchenRanks is the world size kitchenSink is written for.
const kitchenRanks = 6

// kitchenSink calls nearly every replayable MPI function once in a
// deterministic SPMD program: point-to-point in every mode, blocking
// and non-blocking collectives, datatypes, user ops, groups,
// communicators, intercommunicators, Cartesian topologies and
// persistent requests.
func kitchenSink(p *mpi.Proc) {
	const n = kitchenRanks
	p.Init()
	p.Initialized()
	p.GetProcessorName()
	w := p.World()
	p.CommSize(w)
	p.CommRank(w)
	rank := p.Rank()

	send := p.Alloc(4096)
	recv := p.Alloc(4096)
	big := p.Alloc(4096 * n)

	// -- point-to-point flavours, fixed ring partners.
	right := (rank + 1) % n
	left := (rank - 1 + n) % n
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(p.Send(send.Ptr(0), 8, mpi.Int, right, 1, w))
	var st mpi.Status
	must(p.Recv(recv.Ptr(0), 8, mpi.Int, left, 1, w, &st))
	p.GetCount(st, mpi.Int)
	p.GetElements(st, mpi.Int)
	must(p.Bsend(send.Ptr(0), 4, mpi.Int, right, 2, w))
	must(p.Recv(recv.Ptr(0), 4, mpi.Int, left, 2, w, nil))
	must(p.Rsend(send.Ptr(0), 2, mpi.Int, right, 3, w))
	must(p.Recv(recv.Ptr(0), 2, mpi.Int, left, 3, w, nil))
	// Synchronous send paired with a probe on the receiving side.
	if rank%2 == 0 {
		must(p.Ssend(send.Ptr(64), 4, mpi.Int, right, 4, w))
		must(p.Recv(recv.Ptr(64), 4, mpi.Int, left, 4, w, nil))
	} else {
		must(p.Probe(left, 4, w, &st))
		must(p.Recv(recv.Ptr(64), 4, mpi.Int, left, 4, w, nil))
		must(p.Ssend(send.Ptr(64), 4, mpi.Int, right, 4, w))
	}
	must(p.SendrecvReplace(send.Ptr(128), 4, mpi.Int, right, 5, left, 5, w, nil))
	// Issend + Waitall. The request array is in creation order:
	// with per-signature pools both requests carry symbolic id 0,
	// and the replayer resolves equal ids positionally by creation
	// order (see the replay package docs).
	r1, err := p.Issend(send.Ptr(256), 4, mpi.Int, right, 6, w)
	must(err)
	r2, err := p.Irecv(recv.Ptr(256), 4, mpi.Int, left, 6, w)
	must(err)
	must(p.Waitall([]*mpi.Request{r1, r2}, make([]mpi.Status, 2)))

	// -- collectives, dense and vector.
	must(p.Bcast(big.Ptr(0), 16, mpi.Double, 0, w))
	must(p.Gather(send.Ptr(0), 4, mpi.Int, big.Ptr(0), 4, mpi.Int, 1, w))
	must(p.Scatter(big.Ptr(0), 4, mpi.Int, recv.Ptr(0), 4, mpi.Int, 1, w))
	counts := make([]int, n)
	displs := make([]int, n)
	off := 0
	for i := range counts {
		counts[i] = i + 1
		displs[i] = off
		off += i + 1
	}
	must(p.Gatherv(send.Ptr(0), rank+1, mpi.Int, big.Ptr(0), counts, displs, mpi.Int, 0, w))
	must(p.Scatterv(big.Ptr(0), counts, displs, mpi.Int, recv.Ptr(0), rank+1, mpi.Int, 0, w))
	must(p.Allgatherv(send.Ptr(0), rank+1, mpi.Int, big.Ptr(0), counts, displs, mpi.Int, w))
	must(p.Alltoallv(send.Ptr(0), counts, displs, mpi.Int, big.Ptr(0), counts, displs, mpi.Int, w))
	must(p.Reduce(send.Ptr(0), recv.Ptr(0), 4, mpi.Double, mpi.OpMax, 2, w))
	must(p.ReduceScatter(send.Ptr(0), recv.Ptr(0), counts, mpi.Int, mpi.OpSum, w))
	must(p.ReduceScatterBlock(send.Ptr(0), recv.Ptr(0), 2, mpi.Int, mpi.OpSum, w))
	must(p.Scan(send.Ptr(0), recv.Ptr(0), 2, mpi.Double, mpi.OpSum, w))
	must(p.Exscan(send.Ptr(0), recv.Ptr(0), 2, mpi.Double, mpi.OpSum, w))

	// -- non-blocking collectives.
	var reqs []*mpi.Request
	r, err := p.Ibarrier(w)
	must(err)
	reqs = append(reqs, r)
	r, err = p.Ibcast(big.Ptr(0), 8, mpi.Double, 0, w)
	must(err)
	reqs = append(reqs, r)
	must(p.Waitall(reqs, make([]mpi.Status, len(reqs))))
	r, err = p.Igather(send.Ptr(0), 2, mpi.Int, big.Ptr(0), 2, mpi.Int, 0, w)
	must(err)
	must(p.Wait(r, nil))
	r, err = p.Iscatter(big.Ptr(0), 2, mpi.Int, recv.Ptr(0), 2, mpi.Int, 0, w)
	must(err)
	must(p.Wait(r, nil))
	r, err = p.Iallgather(send.Ptr(0), 2, mpi.Int, big.Ptr(0), 2, mpi.Int, w)
	must(err)
	must(p.Wait(r, nil))
	r, err = p.Ialltoall(send.Ptr(0), 2, mpi.Int, big.Ptr(0), 2, mpi.Int, w)
	must(err)
	must(p.Wait(r, nil))
	r, err = p.Ireduce(send.Ptr(0), recv.Ptr(0), 2, mpi.Int, mpi.OpMin, 0, w)
	must(err)
	must(p.Wait(r, nil))
	r, err = p.Iallreduce(send.Ptr(0), recv.Ptr(0), 2, mpi.Int, mpi.OpSum, w)
	must(err)
	must(p.Wait(r, nil))

	// -- datatypes.
	idx, err := p.TypeIndexed([]int{1, 2}, []int{0, 4}, mpi.Int)
	must(err)
	must(p.TypeCommit(idx))
	p.TypeSize(idx)
	p.TypeGetExtent(idx)
	dup, err := p.TypeDup(idx)
	must(err)
	must(p.Send(send.Ptr(512), 1, dup, mpi.ProcNull, 9, w))
	must(p.TypeFree(dup))
	must(p.TypeFree(idx))
	stru, err := p.TypeCreateStruct([]int{2, 1}, []int{0, 16}, []*mpi.Datatype{mpi.Int, mpi.Double})
	must(err)
	must(p.TypeCommit(stru))
	must(p.Send(send.Ptr(1024), 1, stru, mpi.ProcNull, 9, w))
	must(p.TypeFree(stru))

	// -- user-defined reduction.
	op, err := p.OpCreate(func(dst, src []byte, dt *mpi.Datatype) {}, true)
	must(err)
	must(p.Allreduce(send.Ptr(0), recv.Ptr(0), 1, mpi.Int, op, w))
	must(p.OpFree(op))

	// -- groups.
	g, err := p.CommGroup(w)
	must(err)
	p.GroupSize(g)
	p.GroupRank(g)
	evens, err := p.GroupIncl(g, []int{0, 2, 4})
	must(err)
	odds, err := p.GroupExcl(g, []int{0, 2, 4})
	must(err)
	u, err := p.GroupUnion(evens, odds)
	must(err)
	i2, err := p.GroupIntersection(u, evens)
	must(err)
	d2, err := p.GroupDifference(u, odds)
	must(err)
	_, err = p.GroupTranslateRanks(evens, []int{0, 1}, g)
	must(err)
	sub, err := p.CommCreate(w, evens)
	must(err)
	if sub != nil {
		must(p.Barrier(sub))
		must(p.CommFree(sub))
	}
	for _, gg := range []*mpi.Group{evens, odds, u, i2, d2, g} {
		must(p.GroupFree(gg))
	}

	// -- communicators.
	dupc, err := p.CommDup(w)
	must(err)
	if rank == 0 {
		must(p.CommSetName(dupc, "kitchen"))
		_, err = p.CommGetName(dupc)
		must(err)
	}
	_, err = p.CommCompare(w, dupc)
	must(err)
	_, err = p.CommTestInter(dupc)
	must(err)
	split, err := p.CommSplit(w, rank%2, rank)
	must(err)
	must(p.Allreduce(send.Ptr(0), recv.Ptr(0), 1, mpi.Double, mpi.OpSum, split))
	nodec, err := p.CommSplitType(w, mpi.CommTypeShared, rank)
	must(err)
	must(p.Barrier(nodec))

	// -- inter-communicators: halves bridged by world leaders 0/3.
	half, err := p.CommSplit(w, rank/3, rank)
	must(err)
	remoteLeader := 3
	if rank >= 3 {
		remoteLeader = 0
	}
	inter, err := p.IntercommCreate(half, 0, w, remoteLeader, 77)
	must(err)
	_, err = p.CommRemoteSize(inter)
	must(err)
	peer := inter.Rank()
	if rank < 3 {
		must(p.Send(send.Ptr(0), 1, mpi.Int, peer, 8, inter))
		must(p.Recv(recv.Ptr(0), 1, mpi.Int, peer, 8, inter, nil))
	} else {
		must(p.Recv(recv.Ptr(0), 1, mpi.Int, peer, 8, inter, nil))
		must(p.Send(send.Ptr(0), 1, mpi.Int, peer, 8, inter))
	}
	merged, err := p.IntercommMerge(inter, rank >= 3)
	must(err)
	must(p.Barrier(merged))

	// -- Cartesian topology.
	dims := make([]int, 2)
	must(p.DimsCreate(n, 2, dims))
	cart, err := p.CartCreate(w, dims, []bool{true, false}, false)
	must(err)
	if cart != nil {
		_, err = p.CartCoords(cart, cart.Rank())
		must(err)
		_, _, err = p.CartShift(cart, 0, 1)
		must(err)
		_, _, _, err = p.CartGet(cart)
		must(err)
		_, err = p.CartdimGet(cart)
		must(err)
		row, err := p.CartSub(cart, []bool{false, true})
		must(err)
		if row != nil {
			must(p.Barrier(row))
		}
	}

	// -- persistent requests.
	var pr *mpi.Request
	if rank == 0 {
		pr, err = p.SsendInit(send.Ptr(0), 1, mpi.Int, 1, 11, w)
	} else if rank == 1 {
		pr, err = p.RecvInit(recv.Ptr(0), 1, mpi.Int, 0, 11, w)
	}
	must(err)
	if pr != nil {
		for k := 0; k < 3; k++ {
			must(p.Startall([]*mpi.Request{pr}))
			must(p.Wait(pr, nil))
		}
		must(p.RequestFree(pr))
	}

	send.Free()
	recv.Free()
	big.Free()
	p.Finalize()
	p.Finalized()
}

// TestRoundTripKitchenSink requires the replayed kitchen-sink trace to
// be call-for-call identical — the widest single losslessness test in
// the repository.
func TestRoundTripKitchenSink(t *testing.T) {
	orig, _, err := pilgrim.RunSim(kitchenRanks, pilgrim.Options{}, simOpts(), kitchenSink)
	if err != nil {
		t.Fatal(err)
	}
	re := retrace(t, orig)
	assertSameDecodedStreams(t, orig, re)
}

// TestKitchenSinkGolden pins the kitchen-sink program's trace, so the
// calls no workload makes (non-blocking collectives, persistent
// requests, intercommunicators, topologies, datatypes) keep their
// arguments and virtual timestamps.
func TestKitchenSinkGolden(t *testing.T) {
	checkGolden(t, "kitchen_sink_6", kitchenRanks, kitchenSink)
}

// checkGolden traces body on a world of n ranks with aggregated and
// with lossy timing and compares each trace with its golden under
// testdata/golden by its raw bytes (tracetest.Raw): a deflated body
// inflated, since compress/flate's output may change between Go
// releases. Read and written again, each golden is its own bytes.
func checkGolden(t *testing.T, name string, n int, body func(p *mpi.Proc)) {
	for _, lossy := range []bool{false, true} {
		name := name
		var opts pilgrim.Options
		if lossy {
			name += "_lossy"
			opts.TimingMode = pilgrim.TimingLossy
		}
		t.Run(name, func(t *testing.T) {
			f, _, err := pilgrim.RunSim(n, opts, simOpts(), body)
			if err != nil {
				t.Fatal(err)
			}
			got := tracetest.Bytes(t, f)
			path := filepath.Join("testdata", "golden", name+".pilgrim")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := tracetest.Raw(t, got), tracetest.Raw(t, golden); !bytes.Equal(a, b) {
				t.Errorf("trace is %d raw bytes, golden %d, contents differ", len(a), len(b))
			}
			if again := tracetest.Bytes(t, tracetest.Read(t, golden)); !bytes.Equal(again, golden) {
				t.Errorf("the golden read and written again is %d bytes, not its own %d", len(again), len(golden))
			}
		})
	}
}

// TestAnalyzeKitchenSinkGoldens requires analysis to read both
// kitchen-sink goldens, intercommunicators included: every send meets
// its receive, and the exchange over the intercommunicator (tag 8)
// pairs world rank r with r+3 in both directions.
func TestAnalyzeKitchenSinkGoldens(t *testing.T) {
	for _, name := range []string{"kitchen_sink_6", "kitchen_sink_6_lossy"} {
		t.Run(name, func(t *testing.T) {
			b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".pilgrim"))
			if err != nil {
				t.Fatal(err)
			}
			an, err := analysis.Analyze(tracetest.Read(t, b))
			if err != nil {
				t.Fatal(err)
			}
			if len(an.UnmatchedSends)+len(an.UnmatchedRecvs) > 0 {
				t.Errorf("%d sends and %d receives unmatched", len(an.UnmatchedSends), len(an.UnmatchedRecvs))
			}
			pairs := map[[2]int]int{}
			for _, m := range an.Matches {
				if m.Send.Tag == 8 {
					pairs[[2]int{m.Send.Rank, m.Recv.Rank}]++
				}
			}
			want := map[[2]int]int{}
			for r := 0; r < kitchenRanks/2; r++ {
				want[[2]int{r, r + 3}]++
				want[[2]int{r + 3, r}]++
			}
			if !reflect.DeepEqual(pairs, want) {
				t.Errorf("intercommunicator messages (sender, receiver): %v, want %v", pairs, want)
			}
		})
	}
}
