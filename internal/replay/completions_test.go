package replay_test

import (
	"fmt"
	"sort"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/analysis"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/mpi"
)

// completionRanks is the world size completions is written for.
const completionRanks = 6

// completions drives the eight completion calls through each outcome
// they record: Test's flag 0 and 1, Testall false then true,
// Waitany/Testany/Waitsome over all-inactive arrays, Waitall with a
// null slot, empty and non-empty Waitsome/Testsome, persistent
// requests completed by every family, and wildcard receives resolved
// from the statuses. Ranks form a ring: each receives only from its
// left neighbour (or from any source under a tag only that neighbour
// sends), and a receive is polled while still pending only where the
// left neighbour cannot yet have sent, so every outcome is the same on
// every schedule.
func completions(p *mpi.Proc) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	p.Init()
	w := p.World()
	n, rank := p.Size(), p.Rank()
	right, left := (rank+1)%n, (rank-1+n)%n
	send := p.Alloc(1024)
	recv := p.Alloc(1024)
	check := func(ok bool, what string, got ...any) {
		if !ok {
			panic(fmt.Sprintf("completions rank %d: %s: got %v", rank, what, got))
		}
	}
	irecv := func(off, src, tag int) *mpi.Request {
		r, err := p.Irecv(recv.Ptr(off), 1, mpi.Int, src, tag, w)
		must(err)
		return r
	}
	isend := func(off, tag int) *mpi.Request {
		r, err := p.Isend(send.Ptr(off), 1, mpi.Int, right, tag, w)
		must(err)
		return r
	}
	// put and take carry the handshakes; take's buffer is apart from
	// every non-blocking receive's, which may still be pending.
	put := func(tag int) { must(p.Send(send.Ptr(0), 1, mpi.Int, right, tag, w)) }
	take := func(src, tag int) { must(p.Recv(recv.Ptr(512), 1, mpi.Int, src, tag, w, nil)) }
	// release lets the left neighbour send: this rank's receives are
	// posted and polled. It returns once the right neighbour released
	// this rank in turn.
	release := func(tag int) {
		must(p.Send(send.Ptr(0), 1, mpi.Int, left, tag, w))
		take(right, tag)
	}
	// settle returns once every send the left neighbour made before it
	// has reached this rank.
	settle := func(tag int) {
		put(tag)
		take(left, tag)
	}
	reqs := func(rs ...*mpi.Request) []*mpi.Request { return rs }
	sts := make([]mpi.Status, 4)
	var st mpi.Status

	// Test: flag 0 while the message cannot have been sent, then 1.
	r := irecv(0, left, 1)
	flag, err := p.Test(r, nil)
	must(err)
	check(!flag, "Test before the send", flag)
	release(2)
	put(1)
	settle(3)
	flag, err = p.Test(r, &st)
	must(err)
	check(flag && st.Source == left && st.Tag == 1, "Test after the send", flag, st)
	s := isend(8, 4)
	flag, err = p.Test(s, nil)
	must(err)
	check(flag, "Test of a buffered send", flag)
	take(left, 4)

	// Testall: false while one receive is pending, then true.
	r, s = irecv(16, left, 10), isend(16, 11)
	all, err := p.Testall(reqs(r, s), sts)
	must(err)
	check(!all, "Testall before the send", all)
	release(12)
	put(10)
	settle(13)
	all, err = p.Testall(reqs(r, s), sts)
	must(err)
	check(all && sts[0].Source == left && sts[0].Tag == 10, "Testall after the send", all, sts[0])
	take(left, 11)

	// Waitall over an array with a null slot.
	r, s = irecv(24, left, 20), isend(24, 20)
	must(p.Waitall(reqs(r, nil, s), sts))
	check(sts[0].Source == left && sts[0].Tag == 20, "Waitall status", sts[0])

	// Arrays with no active request: a null slot and a persistent
	// receive that was never started.
	idle, err := p.RecvInit(recv.Ptr(32), 1, mpi.Int, left, 30, w)
	must(err)
	idx, err := p.Waitany(reqs(nil, idle), nil)
	must(err)
	check(idx == mpi.Undefined, "Waitany over inactive requests", idx)
	idx, flag, err = p.Testany(reqs(idle, nil), nil)
	must(err)
	check(idx == mpi.Undefined && !flag, "Testany over inactive requests", idx, flag)
	out, err := p.Waitsome(reqs(idle, nil), sts)
	must(err)
	check(len(out) == 0, "Waitsome over inactive requests", out)
	must(p.RequestFree(idle))

	// Waitsome/Testsome: empty, both slots, then the older of two.
	a, b := irecv(40, left, 40), irecv(48, left, 41)
	out, err = p.Testsome(reqs(a, b), sts)
	must(err)
	check(len(out) == 0, "Testsome before the sends", out)
	release(42)
	put(40)
	put(41)
	settle(43)
	out, err = p.Waitsome(reqs(a, nil, b), sts)
	must(err)
	check(fmt.Sprint(out) == "[0 2]" && sts[1].Tag == 41, "Waitsome after the sends", out, sts[:2])
	a, b = irecv(40, left, 44), irecv(48, left, 45)
	release(46)
	put(44)
	settle(47)
	out, err = p.Testsome(reqs(a, b), sts)
	must(err)
	check(fmt.Sprint(out) == "[0]" && sts[0].Tag == 44, "Testsome with one send", out, sts[0])
	release(48)
	put(45)
	out, err = p.Waitsome(reqs(nil, b), sts)
	must(err)
	check(fmt.Sprint(out) == "[1]" && sts[0].Tag == 45, "Waitsome of the rest", out, sts[0])

	// Wildcard receives, resolved from the statuses.
	x, y := irecv(56, mpi.AnySource, 50), irecv(64, left, mpi.AnyTag)
	put(50)
	put(51)
	idx, err = p.Waitany(reqs(x, y), &st)
	must(err)
	check(idx == 0 && st.Source == left && st.Tag == 50, "Waitany of a wildcard source", idx, st)
	settle(52)
	idx, flag, err = p.Testany(reqs(nil, y), &st)
	must(err)
	check(idx == 1 && flag && st.Source == left && st.Tag == 51, "Testany of a wildcard tag", idx, flag, st)
	u, v := irecv(72, mpi.AnySource, 53), irecv(80, mpi.AnySource, 54)
	put(53)
	put(54)
	settle(55)
	out, err = p.Testsome(reqs(u, v), sts)
	must(err)
	check(fmt.Sprint(out) == "[0 1]" && sts[0].Source == left && sts[1].Source == left, "Testsome of wildcards", out, sts[:2])
	z := irecv(88, left, mpi.AnyTag)
	put(56)
	must(p.Wait(z, &st))
	check(st.Tag == 56, "Wait of a wildcard tag", st)
	q, s := irecv(96, mpi.AnySource, 57), isend(96, 57)
	must(p.Waitall(reqs(q, s), sts))
	check(sts[0].Source == left && sts[0].Tag == 57, "Waitall of a wildcard source", sts[0])

	// Persistent requests, started together and completed by each
	// family in turn. A round returns once both are complete. The
	// receive takes symbolic id 1 from its pool, while the send takes
	// id 0 from its own; sharedIDs covers two that share an id.
	spare, err := p.RecvInit(recv.Ptr(104), 1, mpi.Int, left, 60, w)
	must(err)
	pr, err := p.RecvInit(recv.Ptr(104), 1, mpi.Int, left, 60, w)
	must(err)
	must(p.RequestFree(spare))
	ps, err := p.SendInit(send.Ptr(104), 1, mpi.Int, right, 60, w)
	must(err)
	both := reqs(ps, pr)
	round := func(tag int) {
		must(p.Startall(both))
		settle(tag)
	}
	round(61)
	must(p.Wait(ps, nil))
	must(p.Wait(pr, &st))
	check(st.Source == left && st.Tag == 60, "Wait of a persistent receive", st)
	round(62)
	for _, pq := range both {
		flag, err = p.Test(pq, nil)
		must(err)
		check(flag, "Test of a persistent request", flag)
	}
	round(63)
	must(p.Waitall(both, sts))
	round(64)
	for want := range both {
		idx, err = p.Waitany(both, nil)
		must(err)
		check(idx == want, "Waitany of persistent requests", idx)
	}
	round(65)
	out, err = p.Waitsome(both, sts)
	must(err)
	check(len(out) == 2, "Waitsome of persistent requests", out)
	round(66)
	all, err = p.Testall(both, sts)
	must(err)
	check(all, "Testall of persistent requests", all)
	round(67)
	for want := range both {
		idx, flag, err = p.Testany(both, nil)
		must(err)
		check(idx == want && flag, "Testany of persistent requests", idx, flag)
	}
	round(68)
	out, err = p.Testsome(both, sts)
	must(err)
	check(len(out) == 2, "Testsome of persistent requests", out)
	must(p.RequestFree(ps))
	must(p.RequestFree(pr))

	send.Free()
	recv.Free()
	p.Finalize()
}

// TestCompletionsGolden pins the completions program's trace, so each
// outcome of the eight completion calls keeps its recorded arguments
// and the request ids they recycle.
func TestCompletionsGolden(t *testing.T) {
	checkGolden(t, "completions_6", completionRanks, completions)
}

// tee is one rank's tracer that also keeps every call record it sees.
type tee struct {
	*pilgrim.Tracer
	calls []mpispec.CallRecord
}

func (x *tee) Post(rec *mpispec.CallRecord) {
	x.Tracer.Post(rec)
	x.calls = append(x.calls, *rec)
}

// matchRow is one matched message: who sent it from which call, who
// received it with which call, the source and tag its receive
// resolved, and the calls that completed either side.
type matchRow struct {
	sendRank, sendIndex, sendDone int
	recvRank, recvIndex, recvDone int
	src                           int
	tag                           int64
}

// sharedIDRanks is the world size sharedIDs is written for.
const sharedIDRanks = 4

// sharedIDs gives two live persistent requests the same symbolic id: a
// Send_init and a Recv_init draw id 0 from their own pools (§3.4.3).
// Each rank sends to its right neighbour and receives from its left,
// starts both with one Startall and completes both with one Waitall,
// twice, then frees them.
func sharedIDs(p *mpi.Proc) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	p.Init()
	w := p.World()
	n, rank := p.Size(), p.Rank()
	buf := p.Alloc(64)
	ps, err := p.SendInit(buf.Ptr(0), 1, mpi.Int, (rank+1)%n, 7, w)
	must(err)
	pr, err := p.RecvInit(buf.Ptr(32), 1, mpi.Int, (rank-1+n)%n, 7, w)
	must(err)
	both := []*mpi.Request{ps, pr}
	sts := make([]mpi.Status, 2)
	for range 2 {
		must(p.Startall(both))
		must(p.Waitall(both, sts))
	}
	must(p.RequestFree(ps))
	must(p.RequestFree(pr))
	buf.Free()
	p.Finalize()
}

// collectiveIDs gives an MPI_Ibarrier and an MPI_Irecv the same
// symbolic id 0, each from its own pool, and completes the barrier
// first: a Waitany over both, in creation order, returns it, as nothing
// can have been sent before every rank passed the blocking Barrier that
// follows. The receive completes at the later Wait.
func collectiveIDs(p *mpi.Proc) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	p.Init()
	w := p.World()
	n, rank := p.Size(), p.Rank()
	buf := p.Alloc(64)
	b, err := p.Ibarrier(w)
	must(err)
	r, err := p.Irecv(buf.Ptr(32), 1, mpi.Int, (rank-1+n)%n, 8, w)
	must(err)
	if idx, err := p.Waitany([]*mpi.Request{b, r}, nil); err != nil || idx != 0 {
		panic(fmt.Sprintf("collectiveIDs rank %d: Waitany = %d, %v", rank, idx, err))
	}
	must(p.Barrier(w))
	must(p.Send(buf.Ptr(0), 1, mpi.Int, (rank+1)%n, 8, w))
	must(p.Wait(r, nil))
	buf.Free()
	p.Finalize()
}

// idupIDs is collectiveIDs with an MPI_Comm_idup in the barrier's
// place: the idup's request and the receive's are both id 0, and the
// Waitany returns the idup's, which completes once every rank started
// it.
func idupIDs(p *mpi.Proc) {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	p.Init()
	w := p.World()
	n, rank := p.Size(), p.Rank()
	buf := p.Alloc(64)
	c, d, err := p.CommIdup(w)
	must(err)
	r, err := p.Irecv(buf.Ptr(32), 1, mpi.Int, (rank-1+n)%n, 8, w)
	must(err)
	if idx, err := p.Waitany([]*mpi.Request{d, r}, nil); err != nil || idx != 0 {
		panic(fmt.Sprintf("idupIDs rank %d: Waitany = %d, %v", rank, idx, err))
	}
	must(p.Barrier(c))
	must(p.Send(buf.Ptr(0), 1, mpi.Int, (rank+1)%n, 8, w))
	must(p.Wait(r, nil))
	must(p.CommFree(c))
	buf.Free()
	p.Finalize()
}

// TestCompletionMatches checks the matches analysis.Analyze derives
// from each program's trace against the simulator's own record of the
// run, kept by the interceptor next to the tracer: raw request handles
// (never reused) and absolute statuses instead of symbolic ids. It
// then replays the trace, as TestCompletionReplay does.
func TestCompletionMatches(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ranks int
		body  func(p *mpi.Proc)
	}{
		{"completions", completionRanks, completions},
		{"sharedIDs", sharedIDRanks, sharedIDs},
		{"collectiveIDs", sharedIDRanks, collectiveIDs},
		{"idupIDs", sharedIDRanks, idupIDs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tees := make([]*tee, tc.ranks)
			tracers := make([]*pilgrim.Tracer, tc.ranks)
			ics := make([]mpispec.Interceptor, tc.ranks)
			for i := range ics {
				tracers[i] = pilgrim.NewTracer(i, nil, pilgrim.Options{})
				tees[i] = &tee{Tracer: tracers[i]}
				ics[i] = tees[i]
			}
			err := mpi.RunOpt(tc.ranks, mpi.Options{Timeout: 60 * time.Second, Interceptors: ics}, func(p *mpi.Proc) {
				pilgrim.BindOOB(tracers[p.Rank()], p)
				tc.body(p)
			})
			if err != nil {
				t.Fatal(err)
			}
			f, _ := pilgrim.Finalize(tracers)
			an, err := analysis.Analyze(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(an.UnmatchedSends)+len(an.UnmatchedRecvs) > 0 {
				t.Errorf("%d sends and %d receives unmatched", len(an.UnmatchedSends), len(an.UnmatchedRecvs))
			}
			var got []matchRow
			for _, m := range an.Matches {
				got = append(got, matchRow{m.Send.Rank, m.Send.Index, m.Send.DoneIndex,
					m.Recv.Rank, m.Recv.Index, m.Recv.DoneIndex, m.Recv.Src, m.Recv.Tag})
			}
			want := truthMatches(t, tees)
			sortRows(got)
			sortRows(want)
			if len(got) != len(want) {
				t.Fatalf("analysis found %d matches, the run made %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("match %d: analysis %+v, run %+v", i, got[i], want[i])
				}
			}
			sameReplayedMessages(t, f)
		})
	}
}

func sortRows(rows []matchRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.recvRank != b.recvRank {
			return a.recvRank < b.recvRank
		}
		return a.recvIndex < b.recvIndex
	})
}

// post is one send or receive of the recorded run.
type post struct {
	send              bool
	rank, index, done int
	peer              int // dest, or source as posted
	tag               int64
}

// truthMatches rebuilds the run's messages from the raw call records.
// The completions program uses MPI_COMM_WORLD only, so communicator
// ranks are world ranks, and MPI's non-overtaking rule pairs the k-th
// send of a (source, dest, tag) channel with its k-th receive.
func truthMatches(t *testing.T, tees []*tee) []matchRow {
	t.Helper()
	var sends, recvs []*post
	for rank, rc := range tees {
		live := map[int64]*post{}     // request handle → operation in flight
		templates := map[int64]post{} // persistent request handle → its operation
		finish := func(h int64, done int, status []int64) {
			op := live[h]
			if op == nil {
				return
			}
			delete(live, h)
			op.done = done
			if !op.send && len(status) == 2 {
				op.peer, op.tag = int(status[0]), status[1]
			}
		}
		for i, rec := range rc.calls {
			a := rec.Args
			switch rec.Func {
			case mpispec.FSend:
				sends = append(sends, &post{true, rank, i, i, int(a[3].I), a[4].I})
			case mpispec.FRecv:
				recvs = append(recvs, &post{false, rank, i, i, int(a[6].Arr[0]), a[6].Arr[1]})
			case mpispec.FIsend:
				op := &post{true, rank, i, -1, int(a[3].I), a[4].I}
				sends, live[a[6].I] = append(sends, op), op
			case mpispec.FIrecv:
				op := &post{false, rank, i, -1, int(a[3].I), a[4].I}
				recvs, live[a[6].I] = append(recvs, op), op
			case mpispec.FSendInit, mpispec.FRecvInit:
				templates[a[6].I] = post{rec.Func == mpispec.FSendInit, rank, -1, -1, int(a[3].I), a[4].I}
			case mpispec.FStartall:
				for _, h := range a[1].Arr {
					op := templates[h]
					op.index = i
					if op.send {
						sends = append(sends, &op)
					} else {
						recvs = append(recvs, &op)
					}
					live[h] = &op
				}
			case mpispec.FWait:
				finish(a[0].I, i, a[1].Arr)
			case mpispec.FTest:
				if a[1].I != 0 {
					finish(a[0].I, i, a[2].Arr)
				}
			case mpispec.FWaitall, mpispec.FTestall:
				if rec.Func == mpispec.FWaitall || a[2].I != 0 {
					st := a[len(a)-1].Arr
					for k, h := range a[1].Arr {
						finish(h, i, st[2*k:2*k+2])
					}
				}
			case mpispec.FWaitany, mpispec.FTestany:
				if k := a[2].I; k >= 0 && (rec.Func == mpispec.FWaitany || a[3].I != 0) {
					finish(a[1].Arr[k], i, a[len(a)-1].Arr)
				}
			case mpispec.FWaitsome, mpispec.FTestsome:
				for j, k := range a[3].Arr {
					finish(a[1].Arr[k], i, a[4].Arr[2*j:2*j+2])
				}
			}
		}
		if len(live) > 0 {
			t.Fatalf("rank %d: %d requests never completed", rank, len(live))
		}
	}
	type channel struct {
		src, dst int
		tag      int64
	}
	queue := map[channel][]*post{}
	for _, s := range sends { // already in (rank, index) order
		c := channel{s.rank, s.peer, s.tag}
		queue[c] = append(queue[c], s)
	}
	var rows []matchRow
	for _, r := range recvs {
		c := channel{r.peer, r.rank, r.tag}
		if len(queue[c]) == 0 {
			t.Fatalf("rank %d call %d: no send for its receive from %d tag %d", r.rank, r.index, r.peer, r.tag)
		}
		s := queue[c][0]
		queue[c] = queue[c][1:]
		rows = append(rows, matchRow{s.rank, s.index, s.done, r.rank, r.index, r.done, r.peer, r.tag})
	}
	for c, q := range queue {
		if len(q) > 0 {
			t.Fatalf("channel %+v: %d sends never received", c, len(q))
		}
	}
	return rows
}

// TestCompletionReplay replays the completions trace and requires the
// replay's trace to carry the same messages: the replayer waited for
// exactly the requests each completion call completed.
func TestCompletionReplay(t *testing.T) {
	orig, _, err := pilgrim.RunSim(completionRanks, pilgrim.Options{}, simOpts(), completions)
	if err != nil {
		t.Fatal(err)
	}
	sameReplayedMessages(t, orig)
}

// sameReplayedMessages replays orig and requires the replay's trace to
// carry the same messages, counted by sender, receiver and tag.
func sameReplayedMessages(t *testing.T, orig *pilgrim.TraceFile) {
	t.Helper()
	messages := func(f *pilgrim.TraceFile) map[[3]int64]int {
		an, err := analysis.Analyze(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(an.UnmatchedSends)+len(an.UnmatchedRecvs) > 0 {
			t.Errorf("%d sends and %d receives unmatched", len(an.UnmatchedSends), len(an.UnmatchedRecvs))
		}
		n := map[[3]int64]int{}
		for _, m := range an.Matches {
			n[[3]int64{int64(m.Send.Rank), int64(m.Recv.Rank), m.Recv.Tag}]++
		}
		return n
	}
	a, b := messages(orig), messages(retrace(t, orig))
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("replayed messages differ:\n  original: %v\n  replayed: %v", a, b)
	}
}
