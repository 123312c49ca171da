package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

func run(t *testing.T, n int, body func(p *Proc)) {
	t.Helper()
	if err := RunOpt(n, Options{Timeout: 30 * time.Second}, body); err != nil {
		t.Fatal(err)
	}
}

func putInt32(b []byte, v int32) { binary.LittleEndian.PutUint32(b, uint32(v)) }
func getInt32(b []byte) int32    { return int32(binary.LittleEndian.Uint32(b)) }

func TestSendRecvBasic(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		defer buf.Free()
		if p.Rank() == 0 {
			putInt32(buf.Bytes(), 42)
			if err := p.Send(buf.Ptr(0), 1, Int, 1, 7, w); err != nil {
				t.Error(err)
			}
		} else {
			var st Status
			if err := p.Recv(buf.Ptr(0), 1, Int, 0, 7, w, &st); err != nil {
				t.Error(err)
			}
			if got := getInt32(buf.Bytes()); got != 42 {
				t.Errorf("received %d, want 42", got)
			}
			if st.Source != 0 || st.Tag != 7 || st.Count != 4 {
				t.Errorf("bad status %+v", st)
			}
		}
	})
}

func TestRecvBeforeSend(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(8)
		if p.Rank() == 1 {
			var st Status
			if err := p.Recv(buf.Ptr(0), 2, Int, 0, 3, w, &st); err != nil {
				t.Error(err)
			}
			if getInt32(buf.Bytes()) != 5 || getInt32(buf.Bytes()[4:]) != 6 {
				t.Error("payload corrupted")
			}
		} else {
			time.Sleep(10 * time.Millisecond) // ensure recv posts first
			putInt32(buf.Bytes(), 5)
			putInt32(buf.Bytes()[4:], 6)
			p.Send(buf.Ptr(0), 2, Int, 1, 3, w)
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run(t, 3, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		switch p.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				var st Status
				if err := p.Recv(buf.Ptr(0), 1, Int, AnySource, AnyTag, w, &st); err != nil {
					t.Error(err)
				}
				if int64(st.Tag) != int64(100+st.Source) {
					t.Errorf("tag %d does not match source %d", st.Tag, st.Source)
				}
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("sources seen: %v", seen)
			}
		default:
			putInt32(buf.Bytes(), int32(p.Rank()))
			p.Send(buf.Ptr(0), 1, Int, 0, 100+p.Rank(), w)
		}
	})
}

func TestNonOvertaking(t *testing.T) {
	// Messages from the same sender with the same tag must arrive in
	// send order.
	const n = 50
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				putInt32(buf.Bytes(), int32(i))
				p.Send(buf.Ptr(0), 1, Int, 1, 0, w)
			}
		} else {
			for i := 0; i < n; i++ {
				p.Recv(buf.Ptr(0), 1, Int, 0, 0, w, nil)
				if got := getInt32(buf.Bytes()); got != int32(i) {
					t.Fatalf("message %d arrived out of order (got %d)", i, got)
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		if p.Rank() == 0 {
			putInt32(buf.Bytes(), 1)
			p.Send(buf.Ptr(0), 1, Int, 1, 10, w)
			putInt32(buf.Bytes(), 2)
			p.Send(buf.Ptr(0), 1, Int, 1, 20, w)
		} else {
			// Receive tag 20 first even though tag 10 arrived first.
			p.Recv(buf.Ptr(0), 1, Int, 0, 20, w, nil)
			if getInt32(buf.Bytes()) != 2 {
				t.Error("tag 20 should carry value 2")
			}
			p.Recv(buf.Ptr(0), 1, Int, 0, 10, w, nil)
			if getInt32(buf.Bytes()) != 1 {
				t.Error("tag 10 should carry value 1")
			}
		}
	})
}

func TestProcNull(t *testing.T) {
	run(t, 1, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		if err := p.Send(buf.Ptr(0), 1, Int, ProcNull, 0, w); err != nil {
			t.Error(err)
		}
		var st Status
		if err := p.Recv(buf.Ptr(0), 1, Int, ProcNull, 0, w, &st); err != nil {
			t.Error(err)
		}
		if st.Source != ProcNull || st.Count != 0 {
			t.Errorf("PROC_NULL recv status %+v", st)
		}
		req, err := p.Isend(buf.Ptr(0), 1, Int, ProcNull, 0, w)
		if err != nil {
			t.Error(err)
		}
		p.Wait(req, nil)
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		sendBuf := p.Alloc(40)
		recvBuf := p.Alloc(40)
		other := 1 - p.Rank()
		for i := 0; i < 10; i++ {
			putInt32(sendBuf.Bytes()[i*4:], int32(p.Rank()*100+i))
		}
		var reqs []*Request
		for i := 0; i < 10; i++ {
			r, err := p.Irecv(recvBuf.Ptr(i*4), 1, Int, other, i, w)
			if err != nil {
				t.Error(err)
			}
			reqs = append(reqs, r)
		}
		for i := 0; i < 10; i++ {
			r, err := p.Isend(sendBuf.Ptr(i*4), 1, Int, other, i, w)
			if err != nil {
				t.Error(err)
			}
			reqs = append(reqs, r)
		}
		if err := p.Waitall(reqs, make([]Status, len(reqs))); err != nil {
			t.Error(err)
		}
		for i := 0; i < 10; i++ {
			if got := getInt32(recvBuf.Bytes()[i*4:]); got != int32(other*100+i) {
				t.Errorf("slot %d: got %d", i, got)
			}
		}
	})
}

func TestWaitany(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(12)
		if p.Rank() == 0 {
			for i := 0; i < 3; i++ {
				putInt32(buf.Bytes()[i*4:], int32(i))
				p.Send(buf.Ptr(i*4), 1, Int, 1, i, w)
			}
		} else {
			reqs := make([]*Request, 3)
			for i := range reqs {
				reqs[i], _ = p.Irecv(buf.Ptr(i*4), 1, Int, 0, i, w)
			}
			seen := map[int]bool{}
			for range reqs {
				idx, err := p.Waitany(reqs, nil)
				if err != nil || idx < 0 {
					t.Fatalf("Waitany: %d %v", idx, err)
				}
				if seen[idx] {
					t.Fatalf("Waitany returned index %d twice", idx)
				}
				seen[idx] = true
				reqs[idx] = nil
			}
			// All requests done: Waitany over nils returns Undefined.
			if idx, _ := p.Waitany(reqs, nil); idx != Undefined {
				t.Errorf("Waitany over consumed requests = %d", idx)
			}
		}
	})
}

func TestTestsomeLoop(t *testing.T) {
	// The paper's §1 example: loop over Testsome until all complete.
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(40)
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				putInt32(buf.Bytes()[i*4:], int32(i))
				p.Send(buf.Ptr(i*4), 1, Int, 1, i, w)
			}
		} else {
			reqs := make([]*Request, 10)
			for i := range reqs {
				reqs[i], _ = p.Irecv(buf.Ptr(i*4), 1, Int, 0, i, w)
			}
			doneCount := 0
			for doneCount < 10 {
				idx, err := p.Testsome(reqs, make([]Status, 10))
				if err != nil {
					t.Fatal(err)
				}
				for _, i := range idx {
					reqs[i] = nil
					doneCount++
				}
				yield()
			}
		}
	})
}

func TestTestFlagTransitions(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		if p.Rank() == 0 {
			time.Sleep(20 * time.Millisecond)
			p.Send(buf.Ptr(0), 1, Int, 1, 0, w)
		} else {
			req, _ := p.Irecv(buf.Ptr(0), 1, Int, 0, 0, w)
			// Initially incomplete (sender sleeps).
			if ok, _ := p.Test(req, nil); ok {
				t.Log("completed surprisingly early; acceptable but unusual")
			}
			for {
				ok, err := p.Test(req, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					break
				}
				yield()
			}
		}
	})
}

func TestSsendBlocksUntilMatched(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		if p.Rank() == 0 {
			start := time.Now()
			if err := p.Ssend(buf.Ptr(0), 1, Int, 1, 0, w); err != nil {
				t.Error(err)
			}
			if time.Since(start) < 20*time.Millisecond {
				t.Error("Ssend returned before receiver posted")
			}
		} else {
			time.Sleep(30 * time.Millisecond)
			p.Recv(buf.Ptr(0), 1, Int, 0, 0, w, nil)
		}
	})
}

func TestSendrecv(t *testing.T) {
	run(t, 4, func(p *Proc) {
		w := p.World()
		n := p.Size()
		sbuf := p.Alloc(4)
		rbuf := p.Alloc(4)
		putInt32(sbuf.Bytes(), int32(p.Rank()))
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		var st Status
		if err := p.Sendrecv(sbuf.Ptr(0), 1, Int, right, 0,
			rbuf.Ptr(0), 1, Int, left, 0, w, &st); err != nil {
			t.Error(err)
		}
		if got := getInt32(rbuf.Bytes()); got != int32(left) {
			t.Errorf("rank %d received %d from left, want %d", p.Rank(), got, left)
		}
	})
}

func TestSendrecvReplace(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		putInt32(buf.Bytes(), int32(p.Rank()+10))
		other := 1 - p.Rank()
		if err := p.SendrecvReplace(buf.Ptr(0), 1, Int, other, 5, other, 5, w, nil); err != nil {
			t.Error(err)
		}
		if got := getInt32(buf.Bytes()); got != int32(other+10) {
			t.Errorf("rank %d got %d", p.Rank(), got)
		}
	})
}

func TestProbeAndIprobe(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(16)
		if p.Rank() == 0 {
			p.Send(buf.Ptr(0), 4, Int, 1, 9, w)
		} else {
			var st Status
			if err := p.Probe(0, 9, w, &st); err != nil {
				t.Fatal(err)
			}
			if st.Count != 16 || st.Source != 0 || st.Tag != 9 {
				t.Errorf("probe status %+v", st)
			}
			// Iprobe must also see it (message still pending).
			found, _ := p.Iprobe(AnySource, AnyTag, w, nil)
			if !found {
				t.Error("Iprobe missed pending message")
			}
			p.Recv(buf.Ptr(0), 4, Int, 0, 9, w, nil)
			found, _ = p.Iprobe(AnySource, AnyTag, w, nil)
			if found {
				t.Error("Iprobe found message after receive")
			}
		}
	})
}

func TestPersistentRequests(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		other := 1 - p.Rank()
		var req *Request
		var err error
		if p.Rank() == 0 {
			req, err = p.SendInit(buf.Ptr(0), 1, Int, other, 0, w)
		} else {
			req, err = p.RecvInit(buf.Ptr(0), 1, Int, other, 0, w)
		}
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 5; iter++ {
			if p.Rank() == 0 {
				putInt32(buf.Bytes(), int32(iter*3))
			}
			if err := p.Start(req); err != nil {
				t.Fatal(err)
			}
			if err := p.Wait(req, nil); err != nil {
				t.Fatal(err)
			}
			if p.Rank() == 1 {
				if got := getInt32(buf.Bytes()); got != int32(iter*3) {
					t.Errorf("iter %d: got %d", iter, got)
				}
			}
		}
		p.RequestFree(req)
	})
}

func TestCancelRecv(t *testing.T) {
	run(t, 1, func(p *Proc) {
		w := p.World()
		buf := p.Alloc(4)
		req, _ := p.Irecv(buf.Ptr(0), 1, Int, 0, 99, w)
		if err := p.Cancel(req); err != nil {
			t.Fatal(err)
		}
		var st Status
		p.Wait(req, &st)
		if !st.Cancelled {
			t.Error("cancelled receive should report Cancelled")
		}
	})
}

func TestInterceptionOrderAndTimestamps(t *testing.T) {
	type call struct {
		fn   string
		pre  bool
		tsOK bool
	}
	recorder := &recordingInterceptor{}
	err := RunOpt(1, Options{Interceptors: []Interceptor{recorder}, Timeout: 10 * time.Second}, func(p *Proc) {
		p.Init()
		buf := p.Alloc(4)
		p.Send(buf.Ptr(0), 1, Int, ProcNull, 0, p.World())
		buf.Free()
		p.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
	wantFns := []string{"MPI_Init", "MPI_Send", "MPI_Finalize"}
	if len(recorder.calls) != len(wantFns) {
		t.Fatalf("captured %d calls, want %d", len(recorder.calls), len(wantFns))
	}
	for i, rec := range recorder.calls {
		if rec.Func.Name() != wantFns[i] {
			t.Errorf("call %d = %s, want %s", i, rec.Func.Name(), wantFns[i])
		}
		if rec.TEnd < rec.TStart {
			t.Errorf("call %d: TEnd %d < TStart %d", i, rec.TEnd, rec.TStart)
		}
	}
	if recorder.allocs != 1 || recorder.frees != 1 {
		t.Errorf("mem hooks: %d allocs, %d frees", recorder.allocs, recorder.frees)
	}
	_ = call{}
}

type recordingInterceptor struct {
	calls  []CallRecord
	allocs int
	frees  int
}

func (r *recordingInterceptor) Pre(rec *CallRecord)                      {}
func (r *recordingInterceptor) Post(rec *CallRecord)                     { r.calls = append(r.calls, *rec) }
func (r *recordingInterceptor) MemAlloc(addr, size uint64, device int32) { r.allocs++ }
func (r *recordingInterceptor) MemFree(addr uint64)                      { r.frees++ }

func TestRunPanicPropagates(t *testing.T) {
	err := RunOpt(2, Options{Timeout: 5 * time.Second}, func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	run(t, 2, func(p *Proc) {
		w := p.World()
		t0 := p.Now()
		p.Compute(1000)
		if p.Now() < t0+1000 {
			t.Error("Compute did not advance clock")
		}
		buf := p.Alloc(1024)
		if p.Rank() == 0 {
			p.Send(buf.Ptr(0), 1024, Byte, 1, 0, w)
		} else {
			p.Recv(buf.Ptr(0), 1024, Byte, 0, 0, w, nil)
			if p.Now() <= t0+1000 {
				t.Error("receive did not advance clock past transfer cost")
			}
		}
	})
}

// funcLog records the functions a rank's calls were traced as.
type funcLog struct{ funcs []mpispec.FuncID }

func (l *funcLog) Pre(*mpispec.CallRecord)             {}
func (l *funcLog) Post(rec *mpispec.CallRecord)        { l.funcs = append(l.funcs, rec.Func) }
func (l *funcLog) MemAlloc(addr, size uint64, _ int32) {}
func (l *funcLog) MemFree(addr uint64)                 {}

// TestOutOfRangePeerRefused requires every point-to-point call to
// refuse a peer that names no rank of its communicator, with an error
// rather than a receive that can never match, and to trace the failing
// call. On an intercommunicator the peer is checked against the remote
// group: on ranks 2..4 below, peer 2 is a local rank but not a remote
// one.
func TestOutOfRangePeerRefused(t *testing.T) {
	cases := []struct {
		fn   mpispec.FuncID
		call func(p *Proc, c *Comm, buf Ptr, bad int) error
	}{
		{mpispec.FSend, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			return p.Send(buf, 1, Int, bad, 0, c)
		}},
		{mpispec.FIsend, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			_, err := p.Isend(buf, 1, Int, bad, 0, c)
			return err
		}},
		{mpispec.FRecv, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			return p.Recv(buf, 1, Int, bad, 0, c, nil)
		}},
		{mpispec.FIrecv, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			_, err := p.Irecv(buf, 1, Int, bad, 0, c)
			return err
		}},
		{mpispec.FRecvInit, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			// A persistent request refuses its peer at Start, as a
			// persistent send does: the request completes with an error.
			r, err := p.RecvInit(buf, 1, Int, bad, 0, c)
			if err != nil {
				return err
			}
			var st Status
			if err := p.Start(r); err != nil {
				return err
			}
			if err := p.Wait(r, &st); err != nil || st.Error == 0 {
				return err
			}
			return fmt.Errorf("status error %d", st.Error)
		}},
		{mpispec.FProbe, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			return p.Probe(bad, 0, c, nil)
		}},
		{mpispec.FIprobe, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			_, err := p.Iprobe(bad, 0, c, nil)
			return err
		}},
		{mpispec.FSendrecv, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			return p.Sendrecv(buf, 1, Int, bad, 0, buf, 1, Int, ProcNull, 0, c, nil)
		}},
		{mpispec.FSendrecv, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			return p.Sendrecv(buf, 1, Int, ProcNull, 0, buf, 1, Int, bad, 0, c, nil)
		}},
		{mpispec.FSendrecvReplace, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			return p.SendrecvReplace(buf, 1, Int, bad, 0, ProcNull, 0, c, nil)
		}},
		{mpispec.FSendrecvReplace, func(p *Proc, c *Comm, buf Ptr, bad int) error {
			return p.SendrecvReplace(buf, 1, Int, ProcNull, 0, bad, 0, c, nil)
		}},
	}
	const n = 5
	logs := make([]mpispec.Interceptor, n)
	for i := range logs {
		logs[i] = &funcLog{}
	}
	err := RunOpt(n, Options{Timeout: 30 * time.Second, Interceptors: logs}, func(p *Proc) {
		w := p.World()
		half, err := p.CommSplit(w, min(p.Rank()/2, 1), p.Rank())
		if err != nil {
			t.Error(err)
			return
		}
		remoteLeader := 2
		if p.Rank() >= 2 {
			remoteLeader = 0
		}
		inter, err := p.IntercommCreate(half, 0, w, remoteLeader, 7)
		if err != nil {
			t.Error(err)
			return
		}
		log := logs[p.Rank()].(*funcLog)
		buf := p.Alloc(4)
		for _, c := range []*Comm{w, inter} {
			bad := c.Size()
			if c.IsInter() {
				bad = c.RemoteSizeRaw()
			}
			for _, tc := range cases {
				mark := len(log.funcs)
				if err := tc.call(p, c, buf.Ptr(0), bad); err == nil {
					t.Errorf("rank %d %s on %s: peer %d accepted", p.Rank(), tc.fn.Name(), c.Name(), bad)
				}
				if !slices.Contains(log.funcs[mark:], tc.fn) {
					t.Errorf("rank %d %s on %s: failing call not traced", p.Rank(), tc.fn.Name(), c.Name())
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProbeProcNull requires a probe of ProcNull to match at once, as
// in MPI, instead of waiting for a message that cannot come.
func TestProbeProcNull(t *testing.T) {
	run(t, 2, func(p *Proc) {
		var st Status
		if err := p.Probe(ProcNull, AnyTag, p.World(), &st); err != nil || st.Source != ProcNull {
			t.Errorf("Probe(ProcNull) = %v, status %+v", err, st)
		}
		if found, err := p.Iprobe(ProcNull, 3, p.World(), &st); err != nil || !found || st.Source != ProcNull {
			t.Errorf("Iprobe(ProcNull) = %v, %v, status %+v", found, err, st)
		}
	})
}
