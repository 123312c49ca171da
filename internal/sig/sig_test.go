package sig

import (
	"bytes"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// fakeOOB emulates the group-wide max all-reduce: the "group max" is
// whatever the test configured.
type fakeOOB struct {
	groupMax  int32
	nextToken int64
	pendingV  map[int64]int32
	ready     map[int64]bool
}

func newFakeOOB(groupMax int32) *fakeOOB {
	return &fakeOOB{groupMax: groupMax, pendingV: map[int64]int32{}, ready: map[int64]bool{}}
}

func (f *fakeOOB) AllreduceMaxInt32(h int64, v int32) int32 {
	if v > f.groupMax {
		return v
	}
	return f.groupMax
}

func (f *fakeOOB) IAllreduceMaxInt32(h int64, v int32) int64 {
	f.nextToken++
	f.pendingV[f.nextToken] = f.AllreduceMaxInt32(h, v)
	return f.nextToken
}

func (f *fakeOOB) PollOOB(token int64) (bool, int32) {
	if !f.ready[token] {
		return false, 0
	}
	return true, f.pendingV[token]
}

// rec builds a CallRecord for tests.
func rec(rank int, f mpispec.FuncID, args ...mpispec.Value) *mpispec.CallRecord {
	return &mpispec.CallRecord{Func: f, Args: args, Rank: rank}
}

func vi(v int64) mpispec.Value { return mpispec.Value{Kind: mpispec.KInt, I: v} }
func vr(v int64) mpispec.Value { return mpispec.Value{Kind: mpispec.KRank, I: v} }
func vt(v int64) mpispec.Value { return mpispec.Value{Kind: mpispec.KTag, I: v} }
func vc(h, myRank int64) mpispec.Value {
	return mpispec.Value{Kind: mpispec.KComm, I: h, Arr: []int64{myRank}}
}
func vdt(h int64) mpispec.Value { return mpispec.Value{Kind: mpispec.KDatatype, I: h} }
func vp(addr uint64) mpispec.Value {
	return mpispec.Value{Kind: mpispec.KPtr, I: int64(addr)}
}
func vreq(h int64) mpispec.Value { return mpispec.Value{Kind: mpispec.KRequest, I: h} }
func vst(src, tag int64) mpispec.Value {
	return mpispec.Value{Kind: mpispec.KStatus, Arr: []int64{src, tag}}
}

const intHandle = 16 + 2 // MPI_INT predefined handle

// sendRec builds an MPI_Send record: rank sends to dest with tag on
// world (handle 1), from a heap buffer at addr.
func sendRec(rank int, addr uint64, dest, tag int64) *mpispec.CallRecord {
	return rec(rank, mpispec.FSend,
		vp(addr), vi(1), vdt(intHandle), vr(dest), vt(tag), vc(1, int64(rank)))
}

func TestRelativeRankMakesStencilSignaturesIdentical(t *testing.T) {
	// §3.4.2: send(dest=rank+1) must encode identically on all ranks.
	var sigs [][]byte
	for rank := 0; rank < 4; rank++ {
		e := NewEncoder(rank, nil)
		e.MemAlloc(0x1000, 64, 0)
		sigs = append(sigs, e.Encode(sendRec(rank, 0x1000, int64(rank+1), 999)))
	}
	for i := 1; i < len(sigs); i++ {
		if !bytes.Equal(sigs[0], sigs[i]) {
			t.Fatalf("rank %d stencil signature differs:\n%v\n%v", i, sigs[0], sigs[i])
		}
	}
}

func TestAbsoluteRanksDiffer(t *testing.T) {
	// Same destination value from different ranks = different deltas =
	// different signatures (that is the price of relative encoding,
	// and it is correct: the calls really differ in behaviour).
	e0 := NewEncoder(0, nil)
	e0.MemAlloc(0x1000, 64, 0)
	e1 := NewEncoder(1, nil)
	e1.MemAlloc(0x1000, 64, 0)
	s0 := e0.Encode(sendRec(0, 0x1000, 3, 0))
	s1 := e1.Encode(sendRec(1, 0x1000, 3, 0))
	if bytes.Equal(s0, s1) {
		t.Fatal("sends to the same absolute dest from different ranks must differ")
	}
}

func TestRootParamAbsolute(t *testing.T) {
	// Bcast(root=0) must encode identically on every rank: root is a
	// root-class parameter, not a peer, so it is stored absolutely.
	build := func(rank int) []byte {
		e := NewEncoder(rank, nil)
		e.MemAlloc(0x2000, 128, 0)
		return e.Encode(rec(rank, mpispec.FBcast,
			vp(0x2000), vi(4), vdt(intHandle), vr(0), vc(1, int64(rank))))
	}
	ref := build(0)
	for rank := 1; rank < 6; rank++ {
		if !bytes.Equal(ref, build(rank)) {
			t.Fatalf("Bcast signature differs on rank %d", rank)
		}
	}
}

func TestConstantTagEncodesIdentically(t *testing.T) {
	// tag=999 is far outside the relative window on every rank here,
	// so it is stored absolutely and the signatures match.
	a := NewEncoder(3, nil)
	a.MemAlloc(0x1000, 64, 0)
	b := NewEncoder(7, nil)
	b.MemAlloc(0x1000, 64, 0)
	sa := a.Encode(sendRec(3, 0x1000, 4, 999))
	sb := b.Encode(sendRec(7, 0x1000, 8, 999))
	if !bytes.Equal(sa, sb) {
		t.Fatal("constant-tag stencil signatures must match")
	}
}

func TestRankRelatedTagEncodesIdentically(t *testing.T) {
	// tag = rank is within the window: relative encoding kicks in.
	a := NewEncoder(3, nil)
	a.MemAlloc(0x1000, 64, 0)
	b := NewEncoder(9, nil)
	b.MemAlloc(0x1000, 64, 0)
	sa := a.Encode(sendRec(3, 0x1000, 4, 3))
	sb := b.Encode(sendRec(9, 0x1000, 10, 9))
	if !bytes.Equal(sa, sb) {
		t.Fatal("rank-related tag signatures must match")
	}
}

func TestProcNullAndAnySource(t *testing.T) {
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 64, 0)
	s1 := e.Encode(rec(0, mpispec.FRecv,
		vp(0x1000), vi(1), vdt(intHandle), vr(-2 /*ANY_SOURCE*/), vt(-1 /*ANY_TAG*/), vc(1, 0), vst(2, 5)))
	d, err := Decode(s1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Args[3].Sel != selAnySrc {
		t.Error("ANY_SOURCE lost")
	}
	if d.Args[4].Sel != selAnyTag {
		t.Error("ANY_TAG lost")
	}
	if src, tag := d.Args[3].Resolve(0), d.Args[4].Resolve(0); src != anySource || tag != anyTag {
		t.Errorf("wildcards resolve to source %d tag %d, want %d %d", src, tag, anySource, anyTag)
	}
	// Status preserved: source (relative to rank 0) and tag.
	st := d.Args[6]
	if st.Arr[0].Resolve(0) != 2 || st.Arr[1].I != 5 {
		t.Errorf("status lost: %+v", st)
	}
	s2 := e.Encode(sendRec(0, 0x1000, -1 /*PROC_NULL*/, 0))
	d2, _ := Decode(s2)
	if d2.Args[3].Sel != selProcNull {
		t.Error("PROC_NULL lost")
	}
}

func TestCommIDAssignment(t *testing.T) {
	oob := newFakeOOB(1) // group max is the initial max (world=0, self=1)
	e := NewEncoder(0, oob)
	// A Comm_split creating handle 300.
	split := rec(0, mpispec.FCommSplit, vc(1, 0),
		mpispec.Value{Kind: mpispec.KColor, I: 0}, mpispec.Value{Kind: mpispec.KKey, I: 0},
		vc(300, 0))
	s := e.Encode(split)
	d, err := Decode(s)
	if err != nil {
		t.Fatal(err)
	}
	if d.Args[0].I != 0 {
		t.Errorf("world comm id = %d, want 0", d.Args[0].I)
	}
	if d.Args[3].I != 2 {
		t.Errorf("new comm id = %d, want 2 (group max 1 + 1)", d.Args[3].I)
	}
	// Use of the new comm sees the same symbolic id.
	e.MemAlloc(0x1000, 64, 0)
	use := e.Encode(rec(0, mpispec.FSend,
		vp(0x1000), vi(1), vdt(intHandle), vr(1), vt(0), vc(300, 0)))
	du, _ := Decode(use)
	if du.Args[5].I != 2 {
		t.Errorf("use of new comm id = %d, want 2", du.Args[5].I)
	}
}

func TestCommIdupPendingThenResolved(t *testing.T) {
	oob := newFakeOOB(1)
	e := NewEncoder(0, oob)
	idup := rec(0, mpispec.FCommIdup, vc(1, 0), vc(400, 0), vreq(77))
	e.Encode(idup)
	if e.PendingComms() != 1 {
		t.Fatalf("pending = %d", e.PendingComms())
	}
	// Using the comm before completion encodes the pending placeholder.
	e.MemAlloc(0x1000, 64, 0)
	use := e.Encode(rec(0, mpispec.FSend,
		vp(0x1000), vi(1), vdt(intHandle), vr(1), vt(0), vc(400, 0)))
	d, _ := Decode(use)
	if d.Args[5].I != commPending {
		t.Errorf("pre-completion comm id = %d, want pending placeholder", d.Args[5].I)
	}
	// Completion arrives; a Wait epilogue polls and resolves.
	oob.ready[1] = true
	wait := e.Encode(rec(0, mpispec.FWait, vreq(77), vst(-3, -3)))
	_ = wait
	if e.PendingComms() != 0 {
		t.Fatal("pending comm not resolved after poll")
	}
	use2 := e.Encode(rec(0, mpispec.FSend,
		vp(0x1000), vi(1), vdt(intHandle), vr(1), vt(0), vc(400, 0)))
	d2, _ := Decode(use2)
	if d2.Args[5].I != 2 {
		t.Errorf("post-completion comm id = %d, want 2", d2.Args[5].I)
	}
}

// slowOOB is a fakeOOB whose non-blocking agreements land only on the
// after-th poll.
type slowOOB struct {
	*fakeOOB
	polls, after int
}

func (o *slowOOB) PollOOB(token int64) (bool, int32) {
	if o.polls++; o.polls < o.after {
		return false, 0
	}
	return true, o.pendingV[token]
}

// TestCommIdupResolvedByItsWait: the Wait that completes an idup's
// request returns only once the new communicator's id is agreed, however
// many polls that takes, so its first use never meets the placeholder.
// A Wait on another request leaves the agreement pending.
func TestCommIdupResolvedByItsWait(t *testing.T) {
	oob := &slowOOB{fakeOOB: newFakeOOB(1), after: 50}
	e := NewEncoder(0, oob)
	e.Encode(rec(0, mpispec.FCommIdup, vc(1, 0), vc(400, 0), vreq(77)))
	e.Encode(rec(0, mpispec.FWait, vreq(78), vst(-3, -3)))
	if e.PendingComms() != 1 {
		t.Fatalf("after a Wait on another request %d agreements pending", e.PendingComms())
	}
	e.Encode(rec(0, mpispec.FWait, vreq(77), vst(-3, -3)))
	if e.PendingComms() != 0 || oob.polls != oob.after {
		t.Fatalf("after the idup's Wait: %d pending, %d polls", e.PendingComms(), oob.polls)
	}
	e.MemAlloc(0x1000, 64, 0)
	d, _ := Decode(e.Encode(rec(0, mpispec.FSend,
		vp(0x1000), vi(1), vdt(intHandle), vr(1), vt(0), vc(400, 0))))
	if d.Args[5].I != 2 {
		t.Errorf("first use of the idup comm encodes id %d, want 2", d.Args[5].I)
	}
}

func TestRequestPoolsStableAcrossCompletionOrders(t *testing.T) {
	// The §3.4.3 scenario: three Irecvs with different sources,
	// completed in a different order each iteration. The signatures of
	// every call must be identical across iterations.
	runIter := func(e *Encoder, order []int) [][]byte {
		var sigs [][]byte
		reqs := []int64{1000, 1001, 1002}
		for i := 0; i < 3; i++ {
			r := rec(0, mpispec.FIrecv,
				vp(0x1000), vi(1), vdt(intHandle), vr(int64(i+1)), vt(0), vc(1, 0), vreq(reqs[i]))
			sigs = append(sigs, e.Encode(r))
		}
		for _, i := range order {
			w := rec(0, mpispec.FWait, vreq(reqs[i]), vst(int64(i+1), 0))
			sigs = append(sigs, e.Encode(w))
		}
		return sigs
	}
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 64, 0)
	base := runIter(e, []int{0, 1, 2})
	for _, order := range [][]int{{2, 1, 0}, {1, 2, 0}, {0, 2, 1}} {
		got := runIter(e, order)
		for i := 0; i < 3; i++ { // the Irecv signatures
			if !bytes.Equal(base[i], got[i]) {
				t.Fatalf("order %v: Irecv %d signature changed", order, i)
			}
		}
	}
}

func TestSharedPoolWouldBreak(t *testing.T) {
	// Demonstrate that two requests with DIFFERENT signatures get ids
	// from independent pools — both start at 0.
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 64, 0)
	s1 := e.Encode(rec(0, mpispec.FIrecv, vp(0x1000), vi(1), vdt(intHandle), vr(1), vt(0), vc(1, 0), vreq(10)))
	s2 := e.Encode(rec(0, mpispec.FIrecv, vp(0x1000), vi(1), vdt(intHandle), vr(2), vt(0), vc(1, 0), vreq(11)))
	d1, _ := Decode(s1)
	d2, _ := Decode(s2)
	if d1.Args[6].I != 0 || d2.Args[6].I != 0 {
		t.Fatalf("per-signature pools must both start at 0: %d %d", d1.Args[6].I, d2.Args[6].I)
	}
	if e.NumRequestPools() != 2 {
		t.Fatalf("NumRequestPools = %d", e.NumRequestPools())
	}
}

func TestPersistentRequestKeepsIDAcrossWaits(t *testing.T) {
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 64, 0)
	e.Encode(rec(0, mpispec.FSendInit, vp(0x1000), vi(1), vdtv(), vr(1), vt(0), vc(1, 0), vreq(50)))
	sigStart1 := e.Encode(rec(0, mpispec.FStart, vreq(50)))
	e.Encode(rec(0, mpispec.FWait, vreq(50), vst(-3, -3)))
	sigStart2 := e.Encode(rec(0, mpispec.FStart, vreq(50)))
	if !bytes.Equal(sigStart1, sigStart2) {
		t.Fatal("persistent request id changed across Start/Wait cycle")
	}
	// After Request_free the id is recycled.
	e.Encode(rec(0, mpispec.FRequestFree, vreq(50)))
	e.Encode(rec(0, mpispec.FSendInit, vp(0x1000), vi(1), vdtv(), vr(1), vt(0), vc(1, 0), vreq(51)))
	sigStart3 := e.Encode(rec(0, mpispec.FStart, vreq(51)))
	if !bytes.Equal(sigStart1, sigStart3) {
		t.Fatal("recycled persistent id should reproduce the original signature")
	}
}

func vdtv() mpispec.Value { return vdt(intHandle) }

func TestMemoryPointerEncoding(t *testing.T) {
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 256, 0)
	e.MemAlloc(0x2000, 256, 1) // device allocation
	// Interior pointer into the first segment.
	s := e.Encode(sendRec(0, 0x1000+128, 1, 0))
	d, _ := Decode(s)
	if d.Args[0].Sel != ptrHeap || d.Args[0].I != 0 || d.Args[0].Off() != 128 {
		t.Errorf("interior pointer decoded as %+v", d.Args[0])
	}
	// Device pointer.
	s2 := e.Encode(sendRec(0, 0x2000, 1, 0))
	d2, _ := Decode(s2)
	if d2.Args[0].I != 1 || d2.Args[0].Dev() != 1 {
		t.Errorf("device pointer decoded as %+v", d2.Args[0])
	}
	// Unknown (stack) address: conservative fallback.
	s3 := e.Encode(sendRec(0, 0x7f0000000000, 1, 0))
	d3, _ := Decode(s3)
	if d3.Args[0].Sel != ptrStack {
		t.Errorf("stack pointer decoded as %+v", d3.Args[0])
	}
	// Same stack address keeps its id.
	s4 := e.Encode(sendRec(0, 0x7f0000000000, 1, 0))
	if !bytes.Equal(s3, s4) {
		t.Error("stack id not stable")
	}
	// Free + realloc reuses segment id 0.
	e.MemFree(0x1000)
	e.MemAlloc(0x9000, 64, 0)
	s5 := e.Encode(sendRec(0, 0x9000, 1, 0))
	d5, _ := Decode(s5)
	if d5.Args[0].I != 0 {
		t.Errorf("segment id not recycled: %+v", d5.Args[0])
	}
}

func TestNilPointer(t *testing.T) {
	e := NewEncoder(0, nil)
	s := e.Encode(sendRec(0, 0, 1, 0))
	d, _ := Decode(s)
	if d.Args[0].Sel != ptrNil {
		t.Errorf("nil pointer decoded as %+v", d.Args[0])
	}
}

func TestDatatypeLifecycle(t *testing.T) {
	e := NewEncoder(0, nil)
	// Create a derived type (handle 500): gets symbolic id 16 (after
	// the 16 predefined).
	s := e.Encode(rec(0, mpispec.FTypeContiguous, vi(4), vdt(intHandle), vdt(500)))
	d, _ := Decode(s)
	if d.Args[1].I != 2 { // MPI_INT predefined id
		t.Errorf("MPI_INT symbolic id = %d", d.Args[1].I)
	}
	if d.Args[2].I != 16 {
		t.Errorf("derived type id = %d, want 16", d.Args[2].I)
	}
	// Use in a send, then free, then create another: id reused.
	e.MemAlloc(0x1000, 64, 0)
	use := e.Encode(rec(0, mpispec.FSend, vp(0x1000), vi(1), vdt(500), vr(1), vt(0), vc(1, 0)))
	du, _ := Decode(use)
	if du.Args[2].I != 16 {
		t.Errorf("type id in use = %d", du.Args[2].I)
	}
	e.Encode(rec(0, mpispec.FTypeFree, vdt(500)))
	s2 := e.Encode(rec(0, mpispec.FTypeContiguous, vi(8), vdt(intHandle), vdt(501)))
	d2, _ := Decode(s2)
	if d2.Args[2].I != 16 {
		t.Errorf("freed type id not recycled: %d", d2.Args[2].I)
	}
}

func TestGroupAndOpLifecycle(t *testing.T) {
	e := NewEncoder(0, nil)
	s := e.Encode(rec(0, mpispec.FCommGroup, vc(1, 0), mpispec.Value{Kind: mpispec.KGroup, I: 600}))
	d, _ := Decode(s)
	if d.Args[1].I != 0 {
		t.Errorf("group id = %d", d.Args[1].I)
	}
	e.Encode(rec(0, mpispec.FGroupFree, mpispec.Value{Kind: mpispec.KGroup, I: 600}))
	s2 := e.Encode(rec(0, mpispec.FCommGroup, vc(1, 0), mpispec.Value{Kind: mpispec.KGroup, I: 601}))
	d2, _ := Decode(s2)
	if d2.Args[1].I != 0 {
		t.Errorf("group id not recycled: %d", d2.Args[1].I)
	}
	// Predefined op MPI_SUM has reserved id 0.
	e.MemAlloc(0x3000, 64, 0)
	ar := e.Encode(rec(0, mpispec.FAllreduce, vp(0x3000), vp(0x3000+32), vi(1), vdt(intHandle),
		mpispec.Value{Kind: mpispec.KOp, I: 64}, vc(1, 0)))
	da, _ := Decode(ar)
	if da.Args[4].I != 0 {
		t.Errorf("MPI_SUM id = %d", da.Args[4].I)
	}
	// User op: pool id after the 16 reserved.
	s3 := e.Encode(rec(0, mpispec.FOpCreate, vi(0), vi(1), mpispec.Value{Kind: mpispec.KOp, I: 700}))
	d3, _ := Decode(s3)
	if d3.Args[2].I != 16 {
		t.Errorf("user op id = %d", d3.Args[2].I)
	}
}

func TestWaitallReleasesRequests(t *testing.T) {
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 64, 0)
	mk := func(h int64, src int64) []byte {
		return e.Encode(rec(0, mpispec.FIrecv, vp(0x1000), vi(1), vdt(intHandle), vr(src), vt(0), vc(1, 0), vreq(h)))
	}
	a1 := mk(1, 1)
	mk(2, 2)
	// Waitall over both.
	e.Encode(rec(0, mpispec.FWaitall, vi(2),
		mpispec.Value{Kind: mpispec.KReqArray, Arr: []int64{1, 2}},
		mpispec.Value{Kind: mpispec.KStatArray, Arr: []int64{1, 0, 2, 0}}))
	// Reissue: ids recycled, signatures identical.
	b1 := mk(3, 1)
	if !bytes.Equal(a1, b1) {
		t.Fatal("request ids not recycled after Waitall")
	}
}

func TestTestsomePartialRelease(t *testing.T) {
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 64, 0)
	for h := int64(1); h <= 3; h++ {
		e.Encode(rec(0, mpispec.FIrecv, vp(0x1000), vi(1), vdt(intHandle), vr(h), vt(0), vc(1, 0), vreq(h)))
	}
	// Testsome completes only index 1.
	e.Encode(rec(0, mpispec.FTestsome, vi(3),
		mpispec.Value{Kind: mpispec.KReqArray, Arr: []int64{1, 2, 3}},
		vi(1),
		mpispec.Value{Kind: mpispec.KIndexArray, Arr: []int64{1}},
		mpispec.Value{Kind: mpispec.KStatArray, Arr: []int64{2, 0}}))
	// Request 2's id is free again; a new Irecv with the same
	// signature (src=2) gets id 0 back.
	s := e.Encode(rec(0, mpispec.FIrecv, vp(0x1000), vi(1), vdt(intHandle), vr(2), vt(0), vc(1, 0), vreq(9)))
	d, _ := Decode(s)
	if d.Args[6].I != 0 {
		t.Errorf("recycled request id = %d, want 0", d.Args[6].I)
	}
	// Requests 1 and 3 still live: their ids are 0 in their own pools
	// (per-signature isolation).
	s1 := e.Encode(rec(0, mpispec.FWait, vreq(1), vst(1, 0)))
	d1, _ := Decode(s1)
	if d1.Args[0].I != 0 {
		t.Errorf("live request id = %d", d1.Args[0].I)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty signature should fail")
	}
	if _, err := Decode([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Error("unknown function id should fail")
	}
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 64, 0)
	s := e.Encode(sendRec(0, 0x1000, 1, 0))
	if _, err := Decode(s[:len(s)-1]); err == nil {
		t.Error("truncated signature should fail")
	}
	if _, err := Decode(append(s, 0)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestDecodeRoundtripAllKinds(t *testing.T) {
	e := NewEncoder(2, nil)
	e.MemAlloc(0x1000, 4096, 0)
	records := []*mpispec.CallRecord{
		rec(2, mpispec.FInit),
		sendRec(2, 0x1000, 3, 999),
		rec(2, mpispec.FAlltoallv,
			vp(0x1000), mpispec.Value{Kind: mpispec.KIntArray, Arr: []int64{1, 2, 3}},
			mpispec.Value{Kind: mpispec.KIntArray, Arr: []int64{0, 1, 3}}, vdt(intHandle),
			vp(0x1100), mpispec.Value{Kind: mpispec.KIntArray, Arr: []int64{3, 2, 1}},
			mpispec.Value{Kind: mpispec.KIntArray, Arr: []int64{0, 3, 5}}, vdt(intHandle),
			vc(1, 2)),
		rec(2, mpispec.FCommSetName, vc(1, 2), mpispec.Value{Kind: mpispec.KString, S: "my-comm"}),
		rec(2, mpispec.FWaitsome, vi(2),
			mpispec.Value{Kind: mpispec.KReqArray, Arr: []int64{0, 0}},
			vi(1), mpispec.Value{Kind: mpispec.KIndexArray, Arr: []int64{0}},
			mpispec.Value{Kind: mpispec.KStatArray, Arr: []int64{1, 5}}),
	}
	for _, r := range records {
		s := e.Encode(r)
		d, err := Decode(s)
		if err != nil {
			t.Fatalf("%s: %v", mpispec.Spec[r.Func].Name, err)
		}
		if d.Func != r.Func {
			t.Fatalf("func mismatch: %v vs %v", d.Func, r.Func)
		}
		if len(d.Args) != len(r.Args) {
			t.Fatalf("%s: %d args decoded, want %d", mpispec.Spec[r.Func].Name, len(d.Args), len(r.Args))
		}
		if d.String() == "" {
			t.Error("empty String()")
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 64, 0)
	s := e.Encode(sendRec(0, 0x1000, 1, 999))
	d, _ := Decode(s)
	str := d.String()
	want := "MPI_Send(buf=seg0+0, count=1, datatype=2, dest=+1, tag=999, comm=0)"
	if str != want {
		t.Errorf("String() = %q, want %q", str, want)
	}
}
