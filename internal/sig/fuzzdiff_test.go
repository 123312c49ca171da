package sig

import (
	"slices"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// scriptOOB is a deterministic out-of-band layer for generated streams:
// an answer depends only on the question and on how many times it was
// asked, so two encoders that ask alike are answered alike. A
// non-blocking agreement completes after token%3 unsuccessful polls.
type scriptOOB struct {
	tokens int64
	polls  map[int64]int64
}

func (o *scriptOOB) AllreduceMaxInt32(h int64, v int32) int32 { return max(v, int32(h%7)) }
func (o *scriptOOB) IAllreduceMaxInt32(h int64, v int32) int64 {
	o.tokens++
	return o.tokens
}
func (o *scriptOOB) PollOOB(tok int64) (bool, int32) {
	if o.polls == nil {
		o.polls = map[int64]int64{}
	}
	o.polls[tok]++
	return o.polls[tok] > tok%3, int32(tok + 2)
}

// Opcodes of a generated stream. Every op is four bytes: the opcode
// (mod opCount) and three parameter bytes.
const (
	opIsend = iota
	opIrecv
	opSendInit
	opRecvInit
	opStart
	opWait
	opTest
	opWaitall
	opTestall
	opWaitany
	opTestany
	opWaitsome
	opTestsome
	opRequestFree
	opIbarrier
	opCommIdup
	opCommDup
	opSend
	opReuseHandle // an Isend whose request handle is one already handed out, live or not
	opMem
	opCount
)

// genStream turns fuzz bytes into one rank's interception stream:
// spec-shaped records in which requests are created, named by later
// calls (with null handles, repeats and out-of-range completion
// indices) and completed in any order.
func genStream(raw []byte) *stream {
	const rank = 3
	s := &stream{}
	handles := []int64{}   // every request handle handed out so far
	comms := []int64{1, 2} // world, self, then what the stream creates
	allocated := map[uint64]bool{}
	nextReq, nextComm := int64(100), int64(300)

	call := func(f mpispec.FuncID, args ...mpispec.Value) {
		s.events = append(s.events, event{rec: rec(rank, f, args...)})
	}
	newReq := func(null bool) mpispec.Value {
		if null {
			return vreq(0)
		}
		nextReq++
		handles = append(handles, nextReq)
		return vreq(nextReq)
	}
	pick := func(b byte) int64 { // a handle handed out earlier, or null
		if len(handles) == 0 || b%16 == 15 {
			return 0
		}
		return handles[int(b)%len(handles)]
	}
	comm := func(b byte) mpispec.Value {
		if b%16 == 15 {
			return mpispec.Value{Kind: mpispec.KComm} // MPI_COMM_NULL
		}
		return vc(comms[int(b)%len(comms)], rank)
	}
	ptr := func(b byte) mpispec.Value {
		switch b % 4 {
		case 0:
			return vp(0)
		case 1:
			return vp(0x7f0000000000 + uint64(b>>2)*8) // stack
		}
		return vp(0x1000*uint64(b%4-1) + uint64(b>>2)) // inside a segment, if opMem allocated it
	}
	peer := func(b byte, recv bool) mpispec.Value {
		switch {
		case b%8 == 7:
			return vr(procNull)
		case b%8 == 6 && recv:
			return vr(anySource)
		}
		return vr(int64(b % 8))
	}
	tag := func(b byte, recv bool) mpispec.Value {
		if b%4 == 3 && recv {
			return vt(anyTag)
		}
		return vt(int64(b % 4))
	}
	p2p := func(f mpispec.FuncID, a, b, c byte, req mpispec.Value) {
		recv := f == mpispec.FIrecv || f == mpispec.FRecvInit
		call(f, ptr(c), vi(int64(b>>4)), vdt(intHandle), peer(a, recv), tag(b, recv), comm(c>>4), req)
	}
	reqArray := func(a, b byte) mpispec.Value {
		arr := make([]int64, 1+b%4)
		for i := range arr {
			arr[i] = pick(a + byte(i))
		}
		if b&0x80 != 0 {
			arr = append(arr, arr[0]) // the same handle twice in one call
		}
		return mpispec.Value{Kind: mpispec.KReqArray, Arr: arr}
	}
	statuses := func(n int) mpispec.Value {
		st := make([]int64, 2*n)
		for i := range st {
			st[i] = int64(i % 5)
		}
		return mpispec.Value{Kind: mpispec.KStatArray, Arr: st}
	}
	indices := func(c byte, n int) mpispec.Value { // a subset, maybe with an index past the array
		var idx []int64
		for i := 0; i <= n; i++ {
			if c&(1<<i) != 0 {
				idx = append(idx, int64(i))
			}
		}
		return mpispec.Value{Kind: mpispec.KIndexArray, Arr: idx}
	}

	for ; len(raw) >= 4; raw = raw[4:] {
		op, a, b, c := raw[0]%opCount, raw[1], raw[2], raw[3]
		switch op {
		case opIsend:
			p2p(mpispec.FIsend, a, b, c, newReq(a&0x80 != 0))
		case opIrecv:
			p2p(mpispec.FIrecv, a, b, c, newReq(a&0x80 != 0))
		case opSendInit:
			p2p(mpispec.FSendInit, a, b, c, newReq(false))
		case opRecvInit:
			p2p(mpispec.FRecvInit, a, b, c, newReq(false))
		case opReuseHandle:
			p2p(mpispec.FIsend, a, b, c, vreq(pick(a)))
		case opStart:
			call(mpispec.FStart, vreq(pick(a)))
		case opWait:
			call(mpispec.FWait, vreq(pick(a)), vst(int64(b%8), int64(c%4)))
		case opTest:
			call(mpispec.FTest, vreq(pick(a)), vi(int64(c&1)), vst(int64(b%8), 0))
		case opWaitall:
			arr := reqArray(a, b)
			call(mpispec.FWaitall, vi(int64(len(arr.Arr))), arr, statuses(len(arr.Arr)))
		case opTestall:
			arr := reqArray(a, b)
			call(mpispec.FTestall, vi(int64(len(arr.Arr))), arr, vi(int64(c&1)), statuses(len(arr.Arr)))
		case opWaitany:
			arr := reqArray(a, b)
			idx := int64(int(c)%(len(arr.Arr)+2)) - 1 // -1 … len: both ends out of range
			call(mpispec.FWaitany, vi(int64(len(arr.Arr))), arr, vi(idx), vst(1, 0))
		case opTestany:
			arr := reqArray(a, b)
			idx := int64(int(c>>1)%(len(arr.Arr)+2)) - 1
			call(mpispec.FTestany, vi(int64(len(arr.Arr))), arr, vi(idx), vi(int64(c&1)), vst(1, 0))
		case opWaitsome, opTestsome:
			f := mpispec.FWaitsome
			if op == opTestsome {
				f = mpispec.FTestsome
			}
			arr := reqArray(a, b)
			idx := indices(c, len(arr.Arr))
			call(f, vi(int64(len(arr.Arr))), arr, vi(int64(len(idx.Arr))), idx, statuses(len(idx.Arr)))
		case opRequestFree:
			call(mpispec.FRequestFree, vreq(pick(a)))
		case opIbarrier:
			call(mpispec.FIbarrier, comm(a), newReq(false))
		case opCommIdup:
			nextComm++
			call(mpispec.FCommIdup, comm(a), vc(nextComm, rank), newReq(b&0x80 != 0))
			comms = append(comms, nextComm)
		case opCommDup:
			nextComm++
			call(mpispec.FCommDup, comm(a), vc(nextComm, rank))
			comms = append(comms, nextComm)
		case opSend:
			call(mpispec.FSend, ptr(c), vi(1), vdt(intHandle), peer(a, false), tag(b, false), comm(c>>4))
		case opMem:
			// The reference leaks an id when an address is registered
			// twice, so the stream frees before it allocates again.
			addr := 0x1000 * uint64(1+a%4)
			if allocated[addr] {
				s.events = append(s.events, event{addr: addr})
			} else {
				s.events = append(s.events, event{addr: addr, size: 0x400, dev: int32(b % 2)})
			}
			allocated[addr] = !allocated[addr]
		}
	}
	return s
}

// fuzzSeeds are streams written by hand, one per behaviour the
// generated ones must be able to reach.
var fuzzSeeds = map[string][]byte{
	// four Irecv, four Isend from two segments, Waitall, repeated.
	"stencil": {
		opMem, 0, 0, 0, opMem, 1, 0, 0,
		opIrecv, 1, 1, 6, opIrecv, 2, 1, 10, opIsend, 1, 1, 7, opIsend, 2, 1, 11,
		opWaitall, 0, 3, 0,
		opIrecv, 1, 1, 6, opIrecv, 2, 1, 10, opIsend, 1, 1, 7, opIsend, 2, 1, 11,
		opWaitall, 4, 3, 0,
	},
	// one handle twice in a Waitall, then the pool's next id.
	"waitall-duplicate": {
		opIrecv, 1, 0, 0, opIrecv, 1, 0, 0, opWaitall, 0, 0x81, 0, opIrecv, 1, 0, 0, opWait, 2, 0, 0,
	},
	// a handle reused by a new request before the old one completed.
	"stale-handle": {
		opIrecv, 1, 0, 0, opIrecv, 2, 0, 0, opReuseHandle, 0, 1, 0, opWait, 0, 0, 0, opIrecv, 1, 0, 0,
		opWaitall, 0, 3, 0,
	},
	// persistent requests across Start/Wait, freed, id recycled.
	"persistent": {
		opSendInit, 1, 0, 0, opRecvInit, 1, 0, 0, opStart, 0, 0, 0, opStart, 1, 0, 0, opWaitall, 0, 1, 0,
		opStart, 0, 0, 0, opWaitany, 0, 1, 1, opRequestFree, 0, 0, 0, opSendInit, 1, 0, 0, opTestsome, 0, 2, 7,
	},
	// idup: pending placeholder, polls, resolution; a blocking dup after.
	"idup": {
		opCommIdup, 0, 0, 0, opSend, 1, 0, 0x20, opIbarrier, 2, 0, 0, opCommIdup, 2, 0, 0, opWait, 0, 0, 0,
		opSend, 1, 0, 0x20, opSend, 1, 0, 0x30, opCommDup, 2, 0, 0, opSend, 1, 0, 0x40, opWaitall, 0, 2, 0,
	},
	// null handles and null communicators everywhere.
	"nulls": {
		opIsend, 0x81, 0, 0xF0, opWait, 15, 0, 0, opWaitall, 15, 2, 0, opTestall, 14, 3, 1, opRequestFree, 15, 0, 0,
		opCommIdup, 15, 0x80, 0, opSend, 7, 3, 0xF1, opIrecv, 6, 3, 0xF1, opTestany, 0, 1, 5, opWaitsome, 0, 3, 0x1F,
	},
}

// FuzzEncodeDifferential compares the one-pass encoder with the
// two-pass reference on generated streams, under the default options
// and each ablation.
func FuzzEncodeDifferential(f *testing.F) {
	names := make([]string, 0, len(fuzzSeeds))
	for name := range fuzzSeeds {
		names = append(names, name)
	}
	slices.Sort(names) // so that "seed#N" names the same stream on every run
	for _, name := range names {
		f.Add(fuzzSeeds[name])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := genStream(raw)
		for _, ab := range ablations {
			compareEncoders(t, "fuzz/"+ab.name, 3, s, ab.opts, &scriptOOB{}, &scriptOOB{})
		}
	})
}

// TestGeneratedStreamsReachTheirCases keeps genStream honest: the
// hand-written seeds really produce the situations they are named for.
func TestGeneratedStreamsReachTheirCases(t *testing.T) {
	count := func(s *stream, pred func(*mpispec.CallRecord) bool) (n int) {
		for _, ev := range s.events {
			if ev.rec != nil && pred(ev.rec) {
				n++
			}
		}
		return n
	}
	dup := count(genStream(fuzzSeeds["waitall-duplicate"]), func(r *mpispec.CallRecord) bool {
		return r.Func == mpispec.FWaitall && len(r.Args[1].Arr) == 3 && r.Args[1].Arr[0] == r.Args[1].Arr[2] && r.Args[1].Arr[0] != 0
	})
	if dup != 1 {
		t.Errorf("waitall-duplicate: %d Waitalls list a live handle twice", dup)
	}
	e := NewEncoder(3, &scriptOOB{})
	pendingSeen := false
	for _, ev := range genStream(fuzzSeeds["idup"]).events {
		if ev.rec == nil {
			continue
		}
		d, err := Decode(e.Encode(ev.rec))
		if err != nil {
			t.Fatal(err)
		}
		if ev.rec.Func == mpispec.FSend && d.Args[5].I == commPending {
			pendingSeen = true
		}
	}
	if !pendingSeen || e.PendingComms() != 0 {
		t.Errorf("idup: pending placeholder seen %v, %d agreements left pending", pendingSeen, e.PendingComms())
	}
	stale := genStream(fuzzSeeds["stale-handle"])
	if n := count(stale, func(r *mpispec.CallRecord) bool { return r.Func == mpispec.FIsend && r.Args[6].I == 101 }); n != 1 {
		t.Errorf("stale-handle: %d Isends reuse handle 101", n)
	}
}
