package sig

import (
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// stencilIteration is one time step of a 2-D halo exchange on rank 5
// of a 4×4 grid — four Irecv, four Isend, a Waitall, an Allreduce —
// the loop body internal/core/alloc_test.go drives through Tracer.Post.
func stencilIteration() []*mpispec.CallRecord {
	peers := []int64{1, 9, 4, 6}
	var recs []*mpispec.CallRecord
	reqs, stats := make([]int64, 8), make([]int64, 16)
	for i, peer := range peers {
		h := int64(100 + i)
		recs = append(recs, rec(5, mpispec.FIrecv, vp(0x1000+uint64(i)*0x100), vi(64), vdt(intHandle),
			vr(peer), vt(7), vc(1, 5), vreq(h)))
		reqs[i], stats[2*i], stats[2*i+1] = h, peer, 7
	}
	for i, peer := range peers {
		h := int64(200 + i)
		recs = append(recs, rec(5, mpispec.FIsend, vp(0x2000+uint64(i)*0x100), vi(64), vdt(intHandle),
			vr(peer), vt(7), vc(1, 5), vreq(h)))
		reqs[4+i] = h
	}
	return append(recs,
		rec(5, mpispec.FWaitall, vi(8),
			mpispec.Value{Kind: mpispec.KReqArray, Arr: reqs},
			mpispec.Value{Kind: mpispec.KStatArray, Arr: stats}),
		rec(5, mpispec.FAllreduce, vp(0x3000), vp(0x3100), vi(1), vdt(intHandle),
			mpispec.Value{Kind: mpispec.KOp, I: 64}, vc(1, 5)))
}

// BenchmarkEncodeStencil is the encoder's share of the interception
// path on a loop body: ns per EncodeTo, averaged over the ten calls.
func BenchmarkEncodeStencil(b *testing.B) {
	e := NewEncoder(5, nil)
	e.MemAlloc(0x1000, 0x3000, 0)
	recs := stencilIteration()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = e.EncodeTo(buf[:0], recs[i%len(recs)])
	}
}
