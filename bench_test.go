package pilgrim_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (the per-figure sweeps delegate to internal/experiments,
// the same code behind cmd/pilgrim-bench), plus component
// microbenchmarks for the compression pipeline itself. Trace sizes are
// reported as custom metrics so `go test -bench` output doubles as the
// figure data.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/experiments"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/replay"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// --- Table / figure regeneration ---------------------------------------------

func BenchmarkTable1Coverage(b *testing.B) {
	var t1 experiments.Table1
	for i := 0; i < b.N; i++ {
		t1 = experiments.RunTable1()
	}
	b.ReportMetric(float64(t1.Pilgrim), "pilgrim-funcs")
	b.ReportMetric(float64(t1.ScalaTrace), "scalatrace-funcs")
	b.ReportMetric(float64(t1.Cypress), "cypress-funcs")
}

func BenchmarkFigStencil(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunStencil(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := r.D2.Points[len(r.D2.Points)-1]
			b.ReportMetric(float64(last.PilgrimB), "bytes@maxP")
		}
	}
}

func BenchmarkFigOSU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOSU(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5NPB(b *testing.B) {
	for _, name := range []string{"is", "mg", "cg", "lu", "sp", "bt"} {
		b.Run(name, func(b *testing.B) {
			procs := 16
			iters := 10
			var pt experiments.Point
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = experiments.RunBoth(name, procs, iters)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.PilgrimB), "pilgrim-B")
			b.ReportMetric(float64(pt.ScalaB), "scalatrace-B")
		})
	}
}

func BenchmarkFig6Flash(b *testing.B) {
	for _, name := range []string{"sedov", "cellular", "stirturb"} {
		b.Run(name, func(b *testing.B) {
			var pt experiments.Point
			var err error
			for i := 0; i < b.N; i++ {
				pt, err = experiments.RunBoth(name, 16, 100)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.PilgrimB), "pilgrim-B")
			b.ReportMetric(float64(pt.ScalaB), "scalatrace-B")
		})
	}
}

func BenchmarkFig7Overhead(b *testing.B) {
	// Same methodology as the figure: Compute burns real CPU so the
	// overhead denominator reflects an application, not an empty shell.
	simOpts := mpi.Options{ComputeFactor: 0.25}
	for _, name := range []string{"sedov", "cellular", "stirturb"} {
		b.Run(name, func(b *testing.B) {
			var base, withP int64
			for i := 0; i < b.N; i++ {
				var err error
				base, err = experiments.RunBaseSim(name, 16, 50, simOpts)
				if err != nil {
					b.Fatal(err)
				}
				pt, err := experiments.RunPilgrimSim(name, 16, 50, pilgrim.Options{}, simOpts)
				if err != nil {
					b.Fatal(err)
				}
				withP = pt.PilgrimNs
			}
			if base > 0 {
				b.ReportMetric(100*float64(withP-base)/float64(base), "overhead-%")
			}
		})
	}
}

func BenchmarkFig8Decomposition(b *testing.B) {
	var r experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunFig8(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(r.Points) > 0 {
		p := r.Points[0]
		tot := p.IntraNs + p.CSTMergeNs + p.CFGMergeNs
		if tot > 0 {
			b.ReportMetric(100*float64(p.IntraNs)/float64(tot), "intra-%")
			b.ReportMetric(100*float64(p.CFGMergeNs)/float64(tot), "cfg-merge-%")
		}
	}
}

func BenchmarkFig9MILC(b *testing.B) {
	var r experiments.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunFig9(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	if n := len(r.Weak.Points); n > 0 {
		b.ReportMetric(float64(r.Weak.Points[n-1].PilgrimB), "weak-bytes@maxP")
	}
}

func BenchmarkFig10Timing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig10(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(r.Series) > 0 {
			pts := r.Series[0].Points
			b.ReportMetric(float64(pts[len(pts)-1].IntB), "interval-B")
			b.ReportMetric(float64(pts[len(pts)-1].DurB), "duration-B")
		}
	}
}

// BenchmarkCollectJournalIngest isolates the durability tax: the same
// snapshot stream ingested by a journaling collector at each fsync
// policy. The journal-less baseline and the ingest rate are bench/'s
// collect_ingest row (collect.journal_delta_us,
// collect.ingest_snaps_per_s).
func BenchmarkCollectJournalIngest(b *testing.B) {
	for _, mode := range []collect.SyncMode{collect.SyncOff, collect.SyncBatch, collect.SyncAlways} {
		b.Run(string(mode), func(b *testing.B) {
			tracers, err := traceRun(8, core.Options{}, mpi.Options{}, workload(b, "stencil2d", 3, 8))
			if err != nil {
				b.Fatal(err)
			}
			snaps := core.Snapshots(tracers)
			srv := startCollector(b, collect.Config{OutDir: b.TempDir(), JournalSync: mode})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := &collect.Client{
					Addr: srv.Addr(),
					Run:  collect.RunInfo{RunID: fmt.Sprintf("bench-%s-%d", mode, i), WorldSize: len(snaps)},
				}
				if _, err := c.Collect(snaps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Component microbenchmarks -------------------------------------------------

func BenchmarkSequiturAppendLoop(b *testing.B) {
	g := sequitur.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Append(int32(i % 7))
	}
}

func BenchmarkSequiturAppendRandom(b *testing.B) {
	g := sequitur.New()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Append(int32(rng.Intn(64)))
	}
}

func BenchmarkEncoderSend(b *testing.B) {
	e := sig.NewEncoder(0, nil)
	e.MemAlloc(0x1000, 1<<16, 0)
	rec := &mpispec.CallRecord{Func: mpispec.FSend, Args: []mpispec.Value{
		{Kind: mpispec.KPtr, I: 0x1000},
		{Kind: mpispec.KInt, I: 64},
		{Kind: mpispec.KDatatype, I: 18},
		{Kind: mpispec.KRank, I: 1},
		{Kind: mpispec.KTag, I: 999},
		{Kind: mpispec.KComm, I: 1, Arr: []int64{0}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Encode(rec)
	}
}

// BenchmarkTracerPost is one repeated record through the whole
// interception path, the timed call in 16.5 included: the Fig 7
// per-call cost, ROADMAP item 8. About 90 ns/op on a 2-core VM.
func BenchmarkTracerPost(b *testing.B) {
	tr := pilgrim.NewTracer(0, nil, pilgrim.Options{})
	tr.MemAlloc(0x1000, 1<<16, 0)
	rec := &mpispec.CallRecord{Func: mpispec.FSend, Args: []mpispec.Value{
		{Kind: mpispec.KPtr, I: 0x1000},
		{Kind: mpispec.KInt, I: 64},
		{Kind: mpispec.KDatatype, I: 18},
		{Kind: mpispec.KRank, I: 1},
		{Kind: mpispec.KTag, I: 999},
		{Kind: mpispec.KComm, I: 1, Arr: []int64{0}},
	}, TStart: 0, TEnd: 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Post(rec)
	}
}

// BenchmarkTracerPostMetrics is BenchmarkTracerPost with a metrics
// collector attached. Only a timed call knows about the collector: it
// takes three more clock reads for the stage histograms and brings the
// call counters up to date. The delta between the two benchmarks is
// that, spread over 16.5 calls: what a collector adds to ROADMAP item
// 8's per-call cost, about 5 ns on a 2-core VM.
func BenchmarkTracerPostMetrics(b *testing.B) {
	tr := pilgrim.NewTracer(0, nil, pilgrim.Options{Collector: pilgrim.NewMetricsCollector()})
	tr.MemAlloc(0x1000, 1<<16, 0)
	rec := &mpispec.CallRecord{Func: mpispec.FSend, Args: []mpispec.Value{
		{Kind: mpispec.KPtr, I: 0x1000},
		{Kind: mpispec.KInt, I: 64},
		{Kind: mpispec.KDatatype, I: 18},
		{Kind: mpispec.KRank, I: 1},
		{Kind: mpispec.KTag, I: 999},
		{Kind: mpispec.KComm, I: 1, Arr: []int64{0}},
	}, TStart: 0, TEnd: 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Post(rec)
	}
}

// BenchmarkTraceRanks is bench/'s trace stage on its wide_spill and
// irregular recordings: every rank's recorded calls traced again into
// a fresh tracer, the tracers built back to back and the ranks dealt
// round-robin to GOMAXPROCS goroutines. ns/call is the goroutines'
// summed time over the calls they trace, bench/'s trace_ns_per_call:
// -cpu 1,2 shows what ranks traced side by side cost each other.
func BenchmarkTraceRanks(b *testing.B) {
	for _, w := range []struct {
		name, app    string
		procs, iters int
		timing       uint8
	}{
		{"cg4096x10", "cg", 4096, 10, trace.TimingAggregated},
		{"cellular16x400lossy", "cellular", 16, 400, trace.TimingLossy},
	} {
		b.Run(w.name, func(b *testing.B) {
			ranks, err := tracetest.Record(w.app, w.procs, w.iters)
			if err != nil {
				b.Fatal(err)
			}
			oobs := make([]*tracetest.Answers, len(ranks))
			calls := 0
			for r, rank := range ranks {
				oobs[r] = rank.OOB()
				calls += rank.Calls
			}
			workers := runtime.GOMAXPROCS(0)
			tracers := make([]*pilgrim.Tracer, len(ranks))
			var busy atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := range ranks {
					oobs[r].Rewind()
					tracers[r] = pilgrim.NewTracer(r, oobs[r], pilgrim.Options{TimingMode: w.timing})
				}
				var wg sync.WaitGroup
				for k := 0; k < workers; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						w0 := time.Now()
						for r := k; r < len(ranks); r += workers {
							ranks[r].Replay(tracers[r])
						}
						busy.Add(int64(time.Since(w0)))
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(busy.Load())/float64(b.N*calls), "ns/call")
		})
	}
}

func BenchmarkCSTMerge64Ranks(b *testing.B) {
	mk := func(rank int) *cst.Table {
		t := cst.New()
		for i := 0; i < 200; i++ {
			t.Add([]byte(fmt.Sprintf("shared-%d", i)), 100)
		}
		for i := 0; i < 20; i++ {
			t.Add([]byte(fmt.Sprintf("rank%d-%d", rank, i)), 100)
		}
		return t
	}
	tables := make([]*cst.Table, 64)
	for r := range tables {
		tables[r] = mk(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		global := cst.New()
		for _, t := range tables {
			if _, err := global.Absorb(t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchmarkFinalize times the finalize pipeline over deterministic
// synthetic snapshots at one rank count. The walk fans the relabel and
// hashing out on GOMAXPROCS workers and packs beside itself; -cpu
// compares widths, and the sequential Sequitur pack is the floor of
// every one.
func benchmarkFinalize(b *testing.B, procs int) {
	snaps := experiments.SyntheticSnapshots(procs)
	b.ReportAllocs()
	b.ResetTimer()
	var stats core.FinalizeStats
	for i := 0; i < b.N; i++ {
		_, stats = core.FinalizeSnapshots(snaps, core.Options{}, nil)
	}
	b.ReportMetric(float64(stats.GlobalCST), "cst-entries")
	b.ReportMetric(float64(stats.UniqueCFGs), "unique-cfgs")
}

func BenchmarkFinalize64(b *testing.B)   { benchmarkFinalize(b, 64) }
func BenchmarkFinalize1024(b *testing.B) { benchmarkFinalize(b, 1024) }
func BenchmarkFinalize4096(b *testing.B) { benchmarkFinalize(b, 4096) }

// BenchmarkPack4096 times the final Sequitur pass alone (§3.5.2) over
// the grammars a 4096-rank synthetic finalize packs, one per grammar
// shape, so the ledger's pack line can be re-measured without bench/.
func BenchmarkPack4096(b *testing.B) {
	f, _ := core.FinalizeSnapshots(experiments.SyntheticSnapshots(4096), core.Options{}, nil)
	reps := f.Representatives()
	appends := int(packAll(reps).InputLen()) // the symbols the pack is over
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if packed := packAll(reps); len(packed) != len(f.Packed) {
			b.Fatalf("pack is %d ints, finalize's was %d", len(packed), len(f.Packed))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*appends), "ns/append")
	b.ReportMetric(float64(len(f.Grammars)), "unique-cfgs")
	b.ReportMetric(float64(len(reps)), "unique-shapes")
}

func BenchmarkTraceStencil64(b *testing.B) {
	body := workloads.Stencil2D(workloads.StencilConfig{Iters: 20})
	var calls int64
	for i := 0; i < b.N; i++ {
		_, stats, err := pilgrim.Run(64, pilgrim.Options{}, body)
		if err != nil {
			b.Fatal(err)
		}
		calls = stats.TotalCalls
	}
	b.ReportMetric(float64(calls), "calls/op")
}

// BenchmarkDecodeRank is the analyst's side of a run: one op reads the
// serialized trace and decodes every rank, as pilgrim-dump -summary or
// pilgrim-analyze do. stencil16x2000 is many calls over 41 signatures
// and two grammars, its CST stored raw; cg1024x10 and cg4096x10 are few
// calls per rank over thousands of grammars and signatures, whose CST
// is stored by template (cg4096x10: 8 135 entries of 10 templates), so
// that they time the decode of each template once and of each entry by
// filling its lifted values in. ns/call and B/call are the op's time and
// allocated bytes, read included, over the run's calls.
func BenchmarkDecodeRank(b *testing.B) {
	for _, w := range []struct {
		name, app    string
		procs, iters int
	}{
		{"stencil16x2000", "stencil2d", 16, 2000},
		{"cg1024x10", "cg", 1024, 10},
		{"cg4096x10", "cg", 4096, 10},
	} {
		b.Run(w.name, func(b *testing.B) {
			body := workload(b, w.app, w.iters, w.procs)
			file, stats, err := pilgrim.Run(w.procs, pilgrim.Options{}, body)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := file.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := trace.Read(bytes.NewReader(buf.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < f.NumRanks; r++ {
					if _, err := pilgrim.DecodeRank(f, r); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			calls := float64(b.N) * float64(stats.TotalCalls)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/calls, "ns/call")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/calls, "B/call")
			b.ReportMetric(float64(file.CST.Len()), "cst-entries")
		})
	}
}

// BenchmarkTraceRead is the read half of BenchmarkDecodeRank alone:
// one op is trace.Read of the serialized trace, which decodes each CST
// template once and joins no signature. stencil16x2000's CST is stored
// raw, cg4096x10's by template.
func BenchmarkTraceRead(b *testing.B) {
	for _, w := range []struct {
		name, app    string
		procs, iters int
	}{
		{"stencil16x2000", "stencil2d", 16, 2000},
		{"cg4096x10", "cg", 4096, 10},
	} {
		b.Run(w.name, func(b *testing.B) {
			body := workload(b, w.app, w.iters, w.procs)
			file, _, err := pilgrim.Run(w.procs, pilgrim.Options{}, body)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := file.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := trace.Read(bytes.NewReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTraceFileWrite(b *testing.B) {
	body := workloads.Stencil2D(workloads.StencilConfig{Iters: 100})
	file, _, err := pilgrim.Run(16, pilgrim.Options{}, body)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := file.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	// One benchmark per encoding optimization: trace the 2D stencil
	// with the optimization disabled and report the trace size blowup.
	configs := []struct {
		name string
		enc  sig.Options
	}{
		{"full", sig.Options{}},
		{"no-relative-ranks", sig.Options{NoRelativeRanks: true}},
		{"no-request-pools", sig.Options{SharedRequestPool: true}},
		{"no-pointer-tracking", sig.Options{NoPointerTracking: true}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			body := workloads.Stencil2D(workloads.StencilConfig{Iters: 20})
			var bytes int
			for i := 0; i < b.N; i++ {
				file, _, err := pilgrim.Run(16, pilgrim.Options{Encoding: cfg.enc}, body)
				if err != nil {
					b.Fatal(err)
				}
				bytes = file.SizeBytes()
			}
			b.ReportMetric(float64(bytes), "trace-B")
		})
	}
}

func BenchmarkReplayRoundtrip(b *testing.B) {
	body := workloads.Stencil2D(workloads.StencilConfig{Iters: 20})
	file, _, err := pilgrim.Run(9, pilgrim.Options{}, body)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := replay.Run(file, mpi.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// packAll is the final Sequitur pass over gs: a Packer fed them in order.
func packAll(gs []sequitur.Serialized) sequitur.Serialized {
	p := sequitur.NewPacker()
	for _, g := range gs {
		p.Add(g)
	}
	return p.Finish()
}
