package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/metrics"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/timing"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
)

// stencilIteration is one time step of a 2-D halo exchange as the
// tracer sees it: four Irecv, four Isend, a Waitall and an Allreduce.
func stencilIteration() []*mpispec.CallRecord {
	const intType, world = 18, 1
	p2p := func(f mpispec.FuncID, buf, peer, req int64) *mpispec.CallRecord {
		return &mpispec.CallRecord{Func: f, TEnd: 40, Args: []mpispec.Value{
			{Kind: mpispec.KPtr, I: buf}, {Kind: mpispec.KInt, I: 64}, {Kind: mpispec.KDatatype, I: intType},
			{Kind: mpispec.KRank, I: peer}, {Kind: mpispec.KTag, I: 7},
			{Kind: mpispec.KComm, I: world, Arr: []int64{5}}, {Kind: mpispec.KRequest, I: req},
		}}
	}
	var recs []*mpispec.CallRecord
	reqs, stats := make([]int64, 8), make([]int64, 16)
	for i, peer := range []int64{1, 9, 4, 6} {
		recs = append(recs, p2p(mpispec.FIrecv, 0x1000+int64(i)*0x100, peer, int64(100+i)))
		reqs[i], stats[2*i], stats[2*i+1] = int64(100+i), peer, 7
	}
	for i, peer := range []int64{1, 9, 4, 6} {
		recs = append(recs, p2p(mpispec.FIsend, 0x2000+int64(i)*0x100, peer, int64(200+i)))
		reqs[4+i] = int64(200 + i)
	}
	recs = append(recs,
		&mpispec.CallRecord{Func: mpispec.FWaitall, TEnd: 900, Args: []mpispec.Value{
			{Kind: mpispec.KInt, I: 8}, {Kind: mpispec.KReqArray, Arr: reqs}, {Kind: mpispec.KStatArray, Arr: stats},
		}},
		&mpispec.CallRecord{Func: mpispec.FAllreduce, TEnd: 300, Args: []mpispec.Value{
			{Kind: mpispec.KPtr, I: 0x3000}, {Kind: mpispec.KPtr, I: 0x3100}, {Kind: mpispec.KInt, I: 1},
			{Kind: mpispec.KDatatype, I: intType}, {Kind: mpispec.KOp, I: 64}, {Kind: mpispec.KComm, I: world, Arr: []int64{5}},
		}})
	return recs
}

// TestPostWarmPathAllocFree pins the whole interception path — encode,
// CST hit, grammar append — at zero allocations once the loop is warm.
// The window holds about 120 timed calls among its 2 000, so it covers
// postTimed too, with its histogram observation and counter flush when
// a collector is attached.
func TestPostWarmPathAllocFree(t *testing.T) {
	for _, col := range []*metrics.Collector{nil, metrics.NewCollector()} {
		tr := NewTracer(5, nil, Options{Collector: col})
		tr.MemAlloc(0x1000, 0x3000, 0)
		recs := stencilIteration()
		iteration := func() {
			for _, r := range recs {
				tr.Post(r)
			}
		}
		for i := 0; i < 50; i++ {
			iteration()
		}
		intra := tr.IntraNs
		if allocs := testing.AllocsPerRun(200, iteration); allocs != 0 {
			t.Fatalf("collector %v: warm stencil iteration allocates %v times in Post, want 0", col != nil, allocs)
		}
		if tr.IntraNs == intra {
			t.Fatalf("collector %v: no call of the window was timed", col != nil)
		}
		if tr.CSTLen() != len(recs) {
			t.Fatalf("CST holds %d signatures, want %d", tr.CSTLen(), len(recs))
		}
	}
}

var tracerSink *Tracer

// TestNewTracerAllocs pins a rank's construction cost, which a wide
// run pays once per rank: the tracer is one allocation, and every map,
// pool and slab is made by the rank that uses it.
func TestNewTracerAllocs(t *testing.T) {
	for _, mode := range []uint8{trace.TimingAggregated, trace.TimingLossy} {
		if allocs := testing.AllocsPerRun(100, func() { tracerSink = NewTracer(0, nil, Options{TimingMode: mode}) }); allocs > 1 {
			t.Fatalf("timing mode %d: NewTracer allocates %v times, want 1", mode, allocs)
		}
	}
}

// TestShortRankAllocs pins what a short rank costs in allocations from
// NewTracer to its last call, ten today. A traced cg rank (34 calls, 7
// signatures) fits the storage its tracer starts with: the tracer
// itself, the slabs its first call adds, the grammar's rules and the
// CST's signature column. Beyond those it makes only the CST's index
// (a map: two), the communicator list Comm_split adds to, two heap
// segments and their id pool's word.
func TestShortRankAllocs(t *testing.T) {
	ranks, err := tracetest.Record("cg", 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := ranks[5]
	if r.Calls != 34 {
		t.Fatalf("cg rank traces %d calls, want 34", r.Calls)
	}
	oob := r.OOB()
	allocs := testing.AllocsPerRun(50, func() {
		oob.Rewind()
		tr := NewTracer(5, oob, Options{})
		r.Replay(tr)
		tracerSink = tr
	})
	if allocs > 12 {
		t.Fatalf("a 34-call cg rank allocates %v times from NewTracer on, want at most 12", allocs)
	}
}

// TestTracerHotFieldsIsolated pins the layout that keeps concurrently
// traced ranks off each other's cache lines: every field Post (or
// MemAlloc, MemFree, Compressor.Record) writes on a call that creates
// no object lies at least 128 B from either end of its allocation, the
// distance an L2 prefetcher that fetches lines in pairs reaches. What
// lies nearer the ends is read-only once built (the rank and options,
// the compressor's bases), written only by object-creating calls (the
// encoder's id tables) or by a call that meets a new terminal (the
// header of the compressor's perSig), or padding.
func TestTracerHotFieldsIsolated(t *testing.T) {
	const reach = 128
	for _, c := range []struct {
		typ reflect.Type
		hot []string
	}{
		{reflect.TypeFor[Tracer](), []string{
			"mu", "sigBuf", "IntraNs", "NCalls", "rng", "callsMark", "cstMark", "countdown", "gap", "ramp",
			"verify", "table", "cfg", "sigMem",
			"enc.reqIDs", "enc.reqPools", "enc.mem", "enc.memPool", "enc.stackIDs", "enc.stackPool",
		}},
		{reflect.TypeFor[timing.Compressor](), []string{"durG", "intG"}},
	} {
		for _, path := range c.hot {
			off, size := fieldSpan(t, c.typ, path)
			if off < reach || c.typ.Size()-(off+size) < reach {
				t.Errorf("%v.%s spans bytes [%d, %d) of %d, want %d B from either end",
					c.typ, path, off, off+size, c.typ.Size(), reach)
			}
		}
	}
}

// fieldSpan returns the offset and size of the field a dotted path
// names, from the start of typ.
func fieldSpan(t *testing.T, typ reflect.Type, path string) (off, size uintptr) {
	for _, name := range strings.Split(path, ".") {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%v has no field %s", typ, name)
		}
		off += f.Offset
		typ = f.Type
	}
	return off, typ.Size()
}

// BenchmarkPostStencil is the per-call cost on a loop body, which the
// grammar's loop cursor follows, where BenchmarkTracerPost's single
// repeated record folds into one run. About 160 ns/op, one timed call
// in 16.5 included.
func BenchmarkPostStencil(b *testing.B) {
	tr := NewTracer(5, nil, Options{})
	tr.MemAlloc(0x1000, 0x3000, 0)
	recs := stencilIteration()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Post(recs[i%len(recs)])
	}
}

// TestGrammarKeyOneAllocation: a grammar's map key is built in one
// allocation, which the key keeps; equal grammars give equal keys and
// a grammar one int off another key.
func TestGrammarKeyOneAllocation(t *testing.T) {
	g := sequitur.Serialized{1, 2, 5, 1, 0, -1, 1, 0}
	if allocs := testing.AllocsPerRun(100, func() { keySink = grammarKey(g) }); allocs != 1 {
		t.Fatalf("grammarKey allocates %.1f times, want 1", allocs)
	}
	other := slices.Clone(g)
	other[2] = 6
	if grammarKey(slices.Clone(g)) != grammarKey(g) || grammarKey(other) == grammarKey(g) {
		t.Fatal("grammarKey does not follow the grammar's ints")
	}
}

var keySink string
