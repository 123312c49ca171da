package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDeadlockTagMismatchReport(t *testing.T) {
	// Classic tag mismatch: rank 0 receives tag 5 from rank 1, while
	// rank 1 synchronously sends tag 7 to rank 0. Neither can ever
	// complete; the report must name both operations and the cycle.
	err := RunOpt(2, Options{Timeout: 60 * time.Second}, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(8)
		if p.Rank() == 0 {
			p.Recv(buf.Ptr(0), 1, Double, 1, 5, w, nil)
		} else {
			p.Ssend(buf.Ptr(0), 1, Double, 0, 7, w)
		}
	})
	if err == nil {
		t.Fatal("expected deadlock")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a deadlock diagnosis", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked ops = %+v, want both ranks", de.Blocked)
	}
	msg := de.Error()
	for _, want := range []string{
		"rank 0: MPI_Recv(src=1, tag=5, comm=MPI_COMM_WORLD)",
		"rank 1: MPI_Ssend(dest=0, tag=7, comm=MPI_COMM_WORLD)",
		"cycle:",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("report missing %q:\n%s", want, msg)
		}
	}
	if len(de.Cycle) != 2 {
		t.Errorf("cycle = %v, want the 2-rank wait loop", de.Cycle)
	}
}

func TestDeadlockFourRankRing(t *testing.T) {
	// All four ranks receive from their left neighbour before anyone
	// sends: a 4-cycle in the wait-for graph.
	const n = 4
	err := RunOpt(n, Options{Timeout: 60 * time.Second}, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(8)
		left := (p.Rank() - 1 + n) % n
		right := (p.Rank() + 1) % n
		p.Recv(buf.Ptr(0), 1, Double, left, 0, w, nil)
		p.Send(buf.Ptr(0), 1, Double, right, 0, w)
	})
	if err == nil {
		t.Fatal("expected deadlock")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a deadlock diagnosis", err)
	}
	if len(de.Blocked) != n {
		t.Fatalf("blocked %d ranks, want %d:\n%s", len(de.Blocked), n, de.Error())
	}
	if len(de.Cycle) != n {
		t.Errorf("cycle = %v, want all %d ranks", de.Cycle, n)
	}
	for _, op := range de.Blocked {
		wantPeer := (op.Rank - 1 + n) % n
		if op.Op != "MPI_Recv" || len(op.WaitsOn) != 1 || op.WaitsOn[0] != wantPeer {
			t.Errorf("rank %d blocked op %+v, want MPI_Recv waiting on %d", op.Rank, op, wantPeer)
		}
	}
	// Every rank must have been unwound with a revocation error, not
	// left hanging (satellite: full error aggregation).
	ranks := FailedRanks(err)
	for r := 0; r < n; r++ {
		if !errors.Is(ranks[r], ErrRevoked) {
			t.Errorf("rank %d error = %v, want ErrRevoked wrap", r, ranks[r])
		}
	}
}

func TestDeadlockCollectiveMissingRank(t *testing.T) {
	// Ranks 0-2 enter a barrier; rank 3 sits in an unmatched receive.
	// The collective report must name exactly the member that never
	// arrived.
	err := RunOpt(4, Options{Timeout: 60 * time.Second}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 3 {
			buf := p.Alloc(8)
			p.Recv(buf.Ptr(0), 1, Double, 0, 9, w, nil)
			return
		}
		p.Barrier(w)
	})
	if err == nil {
		t.Fatal("expected deadlock")
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a deadlock diagnosis", err)
	}
	barriers := 0
	for _, op := range de.Blocked {
		switch op.Op {
		case "MPI_Barrier":
			barriers++
			if len(op.WaitsOn) != 1 || op.WaitsOn[0] != 3 {
				t.Errorf("rank %d barrier waits on %v, want exactly [3]", op.Rank, op.WaitsOn)
			}
		case "MPI_Recv":
			if op.Rank != 3 {
				t.Errorf("unexpected blocked recv on rank %d", op.Rank)
			}
		}
	}
	if barriers != 3 {
		t.Errorf("%d blocked barrier ops, want 3:\n%s", barriers, de.Error())
	}
}

func TestAbortPropagatesPromptly(t *testing.T) {
	// Rank 0 aborts; every other rank is parked in a receive that will
	// never match and must unwind well under a second.
	start := time.Now()
	err := RunOpt(4, Options{Timeout: 60 * time.Second}, func(p *Proc) {
		w := p.World()
		if p.Rank() == 0 {
			time.Sleep(20 * time.Millisecond) // let the others block first
			p.Abort(w, 13)
		}
		buf := p.Alloc(8)
		p.Recv(buf.Ptr(0), 1, Double, (p.Rank()+1)%4, 1, w, nil)
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected abort to fail the run")
	}
	if elapsed > time.Second {
		t.Fatalf("abort took %v to tear the job down", elapsed)
	}
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Rank != 0 || ae.Code != 13 {
		t.Fatalf("error %v does not carry the abort (rank 0, code 13)", err)
	}
	ranks := FailedRanks(err)
	for r := 1; r < 4; r++ {
		if !errors.Is(ranks[r], ErrRevoked) {
			t.Errorf("rank %d error = %v, want ErrRevoked wrap", r, ranks[r])
		}
	}
}

// TestHopelessBlockedOps: the watchdog halts early only when every
// blocked operation waits on crashed ranks, directly or through blocked
// ranks that do.
func TestHopelessBlockedOps(t *testing.T) {
	op := func(rank int, waitsOn ...int) BlockedOp { return BlockedOp{Rank: rank, WaitsOn: waitsOn} }
	cases := []struct {
		name    string
		crashed []int
		ops     []BlockedOp
		want    bool
	}{
		{"each waits on the crashed rank", []int{2}, []BlockedOp{op(0, 2), op(1, 2, 2), op(3, 2)}, true},
		{"a ring broken by the crashed rank", []int{2}, []BlockedOp{op(0, 3), op(1, 0), op(3, 2)}, true},
		{"a crash recorded twice", []int{2, 2}, []BlockedOp{op(0, 2), op(1, 0, 2)}, true},
		{"one waits on no named rank", []int{2}, []BlockedOp{op(0, 2), op(1)}, false},
		{"a cycle of live ranks", []int{2}, []BlockedOp{op(0, 1), op(1, 0), op(3, 2)}, false},
		{"one waits on a running rank too", []int{2}, []BlockedOp{op(0, 2, 1)}, false},
		{"no crashed rank", nil, []BlockedOp{op(0, 1), op(1, 0)}, false},
	}
	for _, tc := range cases {
		if got := hopeless(tc.crashed, tc.ops); got != tc.want {
			t.Errorf("%s: hopeless = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestQuiesceWindowOnlyWithoutCrash: a crash that leaves every survivor
// blocked on it halts the run within the quiescence window; a deadlock
// no crash explains waits the window out.
func TestQuiesceWindowOnlyWithoutCrash(t *testing.T) {
	plan := &FaultPlan{Faults: []Fault{{Kind: FaultCrash, Rank: 2, AtCall: 10}}}
	start := time.Now()
	if err := RunOpt(4, Options{Timeout: 60 * time.Second, FaultPlan: plan}, ringBody(1000)); err == nil {
		t.Fatal("expected a run error after injected crash")
	}
	if elapsed := time.Since(start); elapsed >= quiesceWindow {
		t.Errorf("crashed ring halted after %v, want under the %v window", elapsed, quiesceWindow)
	}
	start = time.Now()
	err := RunOpt(2, Options{Timeout: 60 * time.Second}, func(p *Proc) {
		buf := p.Alloc(8)
		p.Recv(buf.Ptr(0), 1, Double, 1-p.Rank(), 9, p.World(), nil)
	})
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a deadlock diagnosis", err)
	}
	if elapsed := time.Since(start); elapsed < quiesceWindow {
		t.Errorf("deadlock without a crash halted after %v, before the %v window", elapsed, quiesceWindow)
	}
}
