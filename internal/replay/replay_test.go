package replay_test

import (
	"reflect"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/analysis"
	"github.com/hpcrepro/pilgrim/internal/replay"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

func simOpts() mpi.Options { return mpi.Options{Timeout: 60 * time.Second} }

// traceWorkload traces a named workload and returns the file.
func traceWorkload(t *testing.T, name string, n, iters int) *pilgrim.TraceFile {
	t.Helper()
	body, err := workloads.Get(name, iters, n)
	if err != nil {
		t.Fatal(err)
	}
	file, _, err := pilgrim.RunSim(n, pilgrim.Options{}, simOpts(), body)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// retrace replays a trace under a fresh tracer and returns the new
// trace file.
func retrace(t *testing.T, f *pilgrim.TraceFile) *pilgrim.TraceFile {
	t.Helper()
	f2, _, err := pilgrim.RunSim(f.NumRanks, pilgrim.Options{}, simOpts(), replay.Body(f))
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	return f2
}

// assertSameDecodedStreams compares two traces call by call.
func assertSameDecodedStreams(t *testing.T, a, b *pilgrim.TraceFile) {
	t.Helper()
	if a.NumRanks != b.NumRanks {
		t.Fatalf("rank counts differ: %d vs %d", a.NumRanks, b.NumRanks)
	}
	for r := 0; r < a.NumRanks; r++ {
		ca, err := pilgrim.DecodeRank(a, r)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := pilgrim.DecodeRank(b, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ca) != len(cb) {
			t.Fatalf("rank %d: %d vs %d calls", r, len(ca), len(cb))
		}
		for i := range ca {
			if ca[i].String() != cb[i].String() {
				t.Fatalf("rank %d call %d differs:\n  original: %s\n  replayed: %s",
					r, i, ca[i].Decoded, cb[i].Decoded)
			}
		}
	}
}

// TestRoundTrip traces deterministic workloads, replays them, re-traces
// the replay, and requires call-for-call identical streams — the
// paper's losslessness claim exercised end to end through the
// mini-app-generator path.
func TestRoundTrip(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		iters int
	}{
		{"stencil2d", 9, 5},
		{"stencil3d", 8, 3},
		{"lu", 6, 5},
		{"is", 4, 3},
		{"cg", 8, 4},
		{"mg", 8, 4},
		{"bt", 4, 2},
		{"sp", 9, 2},
		{"sedov", 8, 10},
		{"cellular", 8, 60},
		{"stirturb", 8, 5},
		{"milc", 16, 1},
		{"osu_allreduce", 4, 3},
		{"osu_bcast", 4, 3},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			orig := traceWorkload(t, c.name, c.n, c.iters)
			re := retrace(t, orig)
			assertSameDecodedStreams(t, orig, re)
		})
	}
}

// TestReplayNondeterministicCompletes checks that traces containing
// Waitany-style completion calls replay without deadlock (the message
// flow is reproduced; the polling pattern is normalized).
func TestReplayNondeterministicCompletes(t *testing.T) {
	body := func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		n := p.Size()
		buf := p.Alloc(4 * n)
		if p.Rank() == 0 {
			reqs := make([]*mpi.Request, n-1)
			for i := 1; i < n; i++ {
				reqs[i-1], _ = p.Irecv(buf.Ptr(4*i), 1, mpi.Int, i, 5, w)
			}
			for done := 0; done < n-1; {
				idx, _ := p.Waitany(reqs, nil)
				if idx >= 0 {
					reqs[idx] = nil
					done++
					// Keep array shape stable for replay by replacing
					// the completed slot with a fresh null; Waitany over
					// remaining requests continues.
				}
			}
		} else {
			p.Send(buf.Ptr(0), 1, mpi.Int, 0, 5, w)
		}
		p.Finalize()
	}
	file, _, err := pilgrim.RunSim(4, pilgrim.Options{}, simOpts(), body)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Run(file, simOpts()); err != nil {
		t.Fatalf("replay of nondeterministic trace failed: %v", err)
	}
}

// TestReplayPersistentRequests covers Send_init/Recv_init/Start chains.
func TestReplayPersistentRequests(t *testing.T) {
	body := func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		buf := p.Alloc(16)
		other := 1 - p.Rank()
		var req *mpi.Request
		if p.Rank() == 0 {
			req, _ = p.SendInit(buf.Ptr(0), 1, mpi.Int, other, 3, w)
		} else {
			req, _ = p.RecvInit(buf.Ptr(0), 1, mpi.Int, other, 3, w)
		}
		for i := 0; i < 5; i++ {
			p.Start(req)
			p.Wait(req, nil)
		}
		p.RequestFree(req)
		p.Finalize()
	}
	orig, _, err := pilgrim.RunSim(2, pilgrim.Options{}, simOpts(), body)
	if err != nil {
		t.Fatal(err)
	}
	re := retrace(t, orig)
	assertSameDecodedStreams(t, orig, re)
}

// TestReplayDerivedTypesAndGroups covers datatype/group/op recreation.
func TestReplayDerivedTypesAndGroups(t *testing.T) {
	body := func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		vec, _ := p.TypeVector(3, 2, 4, mpi.Int)
		p.TypeCommit(vec)
		buf := p.Alloc(1024)
		p.Send(buf.Ptr(0), 1, vec, mpi.ProcNull, 0, w)
		p.TypeFree(vec)
		g, _ := p.CommGroup(w)
		sub, _ := p.GroupIncl(g, []int{0, 1})
		nc, _ := p.CommCreate(w, sub)
		if nc != nil {
			p.Barrier(nc)
		}
		p.GroupFree(sub)
		p.GroupFree(g)
		p.Finalize()
	}
	orig, _, err := pilgrim.RunSim(3, pilgrim.Options{}, simOpts(), body)
	if err != nil {
		t.Fatal(err)
	}
	re := retrace(t, orig)
	assertSameDecodedStreams(t, orig, re)
}

// TestReplaySplitComms covers communicator reconstruction with
// relative color/key resolution against the replayed comm rank.
func TestReplaySplitComms(t *testing.T) {
	body := func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		sub, _ := p.CommSplit(w, p.Rank()%2, 0)
		buf := p.Alloc(8)
		out := p.Alloc(8)
		p.Allreduce(buf.Ptr(0), out.Ptr(0), 1, mpi.Double, mpi.OpSum, sub)
		row, _ := p.CommDup(sub)
		p.Barrier(row)
		p.CommFree(row)
		p.CommFree(sub)
		p.Finalize()
	}
	orig, _, err := pilgrim.RunSim(6, pilgrim.Options{}, simOpts(), body)
	if err != nil {
		t.Fatal(err)
	}
	re := retrace(t, orig)
	assertSameDecodedStreams(t, orig, re)
}

// idupRanks is the world size idupProgram is written for.
const idupRanks = 4

// idupProgram gives ranks 0 and 1 a duplicate of their half of the
// world by MPI_Comm_idup and sends a message on it. Every rank joins a
// Comm_split of the world: rank 0 between its idup and its Wait, rank 1
// before its idup. A reader that waited for the idup at once would
// leave rank 0 waiting for rank 1's idup while rank 1 waits in the
// split for rank 0.
func idupProgram(p *mpi.Proc) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(p.Init())
	w, rank := p.World(), p.Rank()
	half, err := p.CommSplit(w, rank/2, rank)
	must(err)
	var dup *mpi.Comm
	var req *mpi.Request
	if rank == 0 {
		dup, req, err = p.CommIdup(half)
		must(err)
	}
	parity, err := p.CommSplit(w, rank%2, rank)
	must(err)
	if rank == 1 {
		dup, req, err = p.CommIdup(half)
		must(err)
	}
	if dup != nil {
		must(p.Wait(req, nil))
		buf := p.Alloc(64)
		if rank == 0 {
			must(p.Send(buf.Ptr(0), 3, mpi.Int, 1, 5, dup))
		} else {
			must(p.Recv(buf.Ptr(0), 3, mpi.Int, 0, 5, dup, nil))
		}
		buf.Free()
		must(p.CommFree(dup))
	}
	must(p.Barrier(parity))
	must(p.Finalize())
}

// TestReplayCommIdup replays idupProgram call for call, and requires
// analysis to match its message on the idup'd communicator.
func TestReplayCommIdup(t *testing.T) {
	orig, _, err := pilgrim.RunSim(idupRanks, pilgrim.Options{}, simOpts(), idupProgram)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDecodedStreams(t, orig, retrace(t, orig))

	an, err := analysis.Analyze(orig)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Matches) != 1 || len(an.UnmatchedSends)+len(an.UnmatchedRecvs) != 0 {
		t.Fatalf("%d matches, %d sends and %d receives unmatched; want 1, 0, 0",
			len(an.Matches), len(an.UnmatchedSends), len(an.UnmatchedRecvs))
	}
	// The halves are comm 2, the parity classes 3: the idup'd
	// communicator is the first id after them.
	m := an.Matches[0]
	if m.Send.Rank != 0 || m.Recv.Rank != 1 || m.Send.Tag != 5 || m.Send.Count != 3 || m.Send.CommID != 4 || m.Recv.CommID != 4 {
		t.Errorf("matched %d→%d tag %d count %d on comms %d and %d, want 0→1 tag 5 count 3 on comm 4",
			m.Send.Rank, m.Recv.Rank, m.Send.Tag, m.Send.Count, m.Send.CommID, m.Recv.CommID)
	}
	for r := 0; r < 2; r++ {
		if g := an.CommGroup(r, 4); !reflect.DeepEqual(g, []int{0, 1}) {
			t.Errorf("rank %d: the idup'd communicator resolves to %v, want [0 1]", r, g)
		}
	}
}
