package sig

import (
	"encoding/binary"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// TestEncodeToWarmPathAllocFree pins the tracer's per-call encoding
// cost: once the scratch buffer has grown to the workload's signature
// sizes, EncodeTo of a plain point-to-point call must not allocate.
func TestEncodeToWarmPathAllocFree(t *testing.T) {
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 4096, 0)
	r := sendRec(0, 0x1010, 1, 7)

	var buf []byte
	// Warm up: grow the scratch and settle lifecycle state.
	for i := 0; i < 4; i++ {
		buf = e.EncodeTo(buf[:0], r)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		buf = e.EncodeTo(buf[:0], r)
	})
	if allocs != 0 {
		t.Fatalf("EncodeTo warm path allocates %v times per call, want 0", allocs)
	}
}

// TestEncodeToRequestCycleAllocFree extends the pin to request-creating
// calls: an Irecv/Isend/Waitall cycle looks its §3.4.3 pools up by the
// scratch key bytes, builds a key string only when a pool is created,
// and releases ids through the pool it recorded.
func TestEncodeToRequestCycleAllocFree(t *testing.T) {
	e := NewEncoder(0, nil)
	e.MemAlloc(0x1000, 4096, 0)
	recs := []*mpispec.CallRecord{
		rec(0, mpispec.FIrecv, vp(0x1000), vi(1), vdt(intHandle), vr(1), vt(7), vc(1, 0), vreq(11)),
		rec(0, mpispec.FIrecv, vp(0x1100), vi(1), vdt(intHandle), vr(3), vt(7), vc(1, 0), vreq(12)),
		rec(0, mpispec.FIsend, vp(0x1200), vi(1), vdt(intHandle), vr(1), vt(7), vc(1, 0), vreq(13)),
		rec(0, mpispec.FIsend, vp(0x1300), vi(1), vdt(intHandle), vr(3), vt(7), vc(1, 0), vreq(14)),
		rec(0, mpispec.FWaitall, vi(4),
			mpispec.Value{Kind: mpispec.KReqArray, Arr: []int64{11, 12, 13, 14}},
			mpispec.Value{Kind: mpispec.KStatArray, Arr: []int64{1, 7, 3, 7, 0, 0, 0, 0}}),
	}
	var buf []byte
	cycle := func() {
		for _, r := range recs {
			buf = e.EncodeTo(buf[:0], r)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("Irecv/Isend/Waitall cycle allocates %v times, want 0", allocs)
	}
	if e.NumRequestPools() != 4 {
		t.Fatalf("NumRequestPools = %d, want one per creating signature", e.NumRequestPools())
	}
}

var encoderSink *Encoder

// TestNewEncoderAllocatesWhatARankUses pins the cold start: a rank pays
// for the encoder alone. Pools are values that grow on first use; the
// communicator list, the request map and the maps of derived types,
// groups, user ops and stack addresses are made by their first write;
// and world and self have their ids without an entry.
func TestNewEncoderAllocatesWhatARankUses(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { encoderSink = NewEncoder(0, nil) }); allocs > 1 {
		t.Fatalf("NewEncoder allocates %v times, want 1", allocs)
	}
	e := NewEncoder(0, nil)
	e.Encode(rec(0, mpispec.FTypeContiguous, vi(4), vdt(intHandle), vdt(500)))
	e.Encode(rec(0, mpispec.FCommGroup, vc(1, 0), mpispec.Value{Kind: mpispec.KGroup, I: 600}))
	e.Encode(rec(0, mpispec.FOpCreate, vi(0), vi(1), mpispec.Value{Kind: mpispec.KOp, I: 700}))
	e.Encode(sendRec(0, 0x7f0000000000, 1, 0))
	types, ops, groups := e.objIDs[0].ids, e.objIDs[1].ids, e.objIDs[2].ids
	if len(types) != 1 || len(groups) != 1 || len(ops) != 1 || len(e.stackIDs) != 1 {
		t.Fatalf("first writes: %d types %d groups %d ops %d stack addresses, want one each",
			len(types), len(groups), len(ops), len(e.stackIDs))
	}
}

// TestDecodeAllocatesPerFieldNotPerElement pins the decoder's cold
// path (it runs once per CST entry of a trace): Args is sized from the
// function's parameter list, an array field from its count, and the
// (source, tag) pairs of a status array share one backing array.
func TestDecodeAllocatesPerFieldNotPerElement(t *testing.T) {
	e := NewEncoder(0, nil)
	waitall := e.Encode(rec(0, mpispec.FWaitall, vi(8),
		mpispec.Value{Kind: mpispec.KReqArray, Arr: []int64{0, 0, 0, 0, 0, 0, 0, 0}},
		mpispec.Value{Kind: mpispec.KStatArray, Arr: []int64{1, 7, 3, 7, 1, 7, 3, 7, 0, 0, 0, 0, 0, 0, 0, 0}}))
	d, err := Decode(waitall)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Args) != 3 || len(d.Args[1].Arr) != 8 || len(d.Args[2].Arr) != 8 {
		t.Fatalf("decoded %s", d)
	}
	for i, st := range d.Args[2].Arr {
		if len(st.Arr) != 2 || cap(st.Arr) != 2 {
			t.Fatalf("status %d holds %d fields (cap %d), want a pair of its own", i, len(st.Arr), cap(st.Arr))
		}
	}
	// Args, the request array, the status array, the pairs.
	if allocs := testing.AllocsPerRun(200, func() { Decode(waitall) }); allocs > 4 {
		t.Fatalf("Decode of an 8-request Waitall allocates %v times, want at most 4", allocs)
	}
}

// TestDecodeCountClaimsAreBounded: an array count comes from the
// signature bytes; a claim the remaining bytes cannot hold must fail as
// a truncation, not size an allocation.
func TestDecodeCountClaimsAreBounded(t *testing.T) {
	for _, kind := range []string{"requests", "statuses"} {
		raw := binary.AppendUvarint(nil, uint64(mpispec.FWaitall))
		raw = binary.AppendVarint(raw, 8) // count
		if kind == "statuses" {
			raw = binary.AppendUvarint(raw, 0) // no requests
		}
		raw = binary.AppendUvarint(raw, 1<<40) // claimed elements
		raw = append(raw, 2, 2, 2)             // three bytes of them
		_, err := Decode(raw)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("%s: 2^40 elements in 3 bytes: %v", kind, err)
		}
	}
}
