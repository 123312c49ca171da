package core

import (
	"runtime"
	"sync"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/metrics"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// tracerCounters reads the three per-call counters a tracer flushes.
func tracerCounters(col *metrics.Collector) (calls, hits, misses int64) {
	return col.TracerCalls.Load(), col.CSTHits.Load(), col.CSTMisses.Load()
}

// TestTracerMetricsCounts checks what a collector sees of Post: after
// a flush every call is counted once, as a CST hit or a miss; the
// stage histograms hold the timed calls, a sample; and the final report
// carries the trace-writer gauges.
func TestTracerMetricsCounts(t *testing.T) {
	col := metrics.NewCollector()
	tr := NewTracer(0, nil, Options{Collector: col})
	tr.MemAlloc(0x1000, 64, 0)
	const calls = 500
	const distinct = 10
	for i := 0; i < calls; i++ {
		feed(tr, mpispec.FSend, sendArgs(int64(i%distinct), 999, 0), int64(i*10), int64(i*10+5))
	}
	if c, _, _ := tracerCounters(col); c > calls || c < calls-1<<maxRamp {
		t.Fatalf("before a flush calls = %d, want within one gap below %d", c, calls)
	}
	tr.ProbeStats()
	rep := col.Report()
	if got := rep.Counters["pilgrim_tracer_calls_total"]; got != calls {
		t.Fatalf("calls = %d, want %d", got, calls)
	}
	misses := rep.Counters["pilgrim_tracer_cst_misses_total"]
	hits := rep.Counters["pilgrim_tracer_cst_hits_total"]
	if misses != distinct {
		t.Fatalf("misses = %d, want %d", misses, distinct)
	}
	if hits+misses != calls {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, calls)
	}
	for _, name := range []string{
		"pilgrim_tracer_post_ns",
		"pilgrim_tracer_encode_ns",
		"pilgrim_tracer_cst_ns",
		"pilgrim_tracer_cfg_ns",
	} {
		h, ok := rep.Histograms[name]
		if !ok || h.Count < calls/40 || h.Count > calls {
			t.Fatalf("%s count = %+v, want a sample of %d calls", name, h, calls)
		}
	}

	f, stats := Finalize([]*Tracer{tr})
	if stats.Metrics == nil {
		t.Fatal("FinalizeStats.Metrics nil with collector attached")
	}
	if got := stats.Metrics.Gauges["pilgrim_trace_bytes"]; got != float64(f.SizeBytes()) {
		t.Fatalf("trace bytes gauge = %v, want %d", got, f.SizeBytes())
	}
	if stats.Metrics.Gauges["pilgrim_trace_compression_ratio"] <= 1 {
		t.Fatalf("compression ratio = %v, want > 1", stats.Metrics.Gauges["pilgrim_trace_compression_ratio"])
	}
	if got := stats.Metrics.Gauges["pilgrim_trace_total_calls"]; got != calls {
		t.Fatalf("total calls gauge = %v", got)
	}
}

// TestProbeMatchesTracerState checks that the live-state probe agrees
// with the tracer's own accessors once the stream is quiescent.
func TestProbeMatchesTracerState(t *testing.T) {
	col := metrics.NewCollector()
	tr := NewTracer(0, nil, Options{Collector: col})
	tr.MemAlloc(0x1000, 64, 0)
	for i := 0; i < 200; i++ {
		feed(tr, mpispec.FSend, sendArgs(int64(i%7), int64(i%3), 0), int64(i*10), int64(i*10+5))
	}
	st := tr.ProbeStats()
	if st.Calls != 200 {
		t.Fatalf("probe calls = %d", st.Calls)
	}
	if st.CSTEntries != tr.CSTLen() {
		t.Fatalf("probe CST = %d, tracer CST = %d", st.CSTEntries, tr.CSTLen())
	}
	gs := tr.GrammarStats()
	if st.GrammarRules != gs.Rules || st.GrammarSymbols != gs.Symbols {
		t.Fatalf("probe grammar = %d/%d, tracer = %d/%d", st.GrammarRules, st.GrammarSymbols, gs.Rules, gs.Symbols)
	}
	if st.LiveSegments != 1 {
		t.Fatalf("live segments = %d, want 1", st.LiveSegments)
	}
}

// TestSnapshotConcurrentWithProbes hammers Snapshot and ProbeStats
// (and full collector scrapes) from background goroutines while the
// rank goroutine keeps posting. Run under -race this checks the
// locking, the sampling state and the counter flush included. No
// observer may see a counter or a snapshot's call count go backwards,
// and afterwards the counters must account for every call exactly once
// — concurrent observation must never skew them.
func TestSnapshotConcurrentWithProbes(t *testing.T) {
	col := metrics.NewCollector()
	tr := NewTracer(0, nil, Options{Collector: col})
	remove := col.AddTracerProbe(tr.ProbeStats)
	defer remove()
	tr.MemAlloc(0x1000, 64, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last struct{ snap, probe, calls, hits, misses int64 }
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := tr.Snapshot().Calls
				probe := tr.ProbeStats().Calls
				// Flushed under the tracer's lock, so never behind a call
				// count read before them.
				calls, hits, misses := tracerCounters(col)
				rep := col.Report()
				if snap < last.snap || probe < last.probe || probe < snap || calls < probe ||
					calls < last.calls || hits < last.hits || misses < last.misses ||
					rep.Counters["pilgrim_tracer_calls_total"] < calls {
					t.Errorf("went backwards: snapshot %d, probe %d, counters %d/%d/%d after %+v",
						snap, probe, calls, hits, misses, last)
					return
				}
				last.snap, last.probe, last.calls, last.hits, last.misses = snap, probe, calls, hits, misses
				runtime.Gosched() // on GOMAXPROCS=1 an observer would otherwise keep its whole time slice
			}
		}()
	}

	const calls = 200_000
	for i := 0; i < calls; i++ {
		feed(tr, mpispec.FSend, sendArgs(int64(i%13), 999, 0), int64(i*10), int64(i*10+5))
		if i%2000 == 0 {
			// Yield so the observers interleave even on GOMAXPROCS=1.
			runtime.Gosched()
		}
	}
	// One snapshot from this goroutine so the counter assertion below
	// cannot depend on scheduling.
	tr.Snapshot()
	close(stop)
	wg.Wait()

	rep := col.Report()
	if got := rep.Counters["pilgrim_tracer_calls_total"]; got != calls {
		t.Fatalf("calls = %d, want %d (skewed by concurrent observation)", got, calls)
	}
	hits := rep.Counters["pilgrim_tracer_cst_hits_total"]
	misses := rep.Counters["pilgrim_tracer_cst_misses_total"]
	if hits+misses != calls {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, calls)
	}
	if misses != 13 {
		t.Fatalf("misses = %d, want 13", misses)
	}
	st := tr.ProbeStats()
	if st.Calls != calls || st.CSTEntries != 13 {
		t.Fatalf("final probe = %+v", st)
	}
	if rep.Counters["pilgrim_tracer_snapshots_total"] == 0 {
		t.Fatal("snapshot counter did not move")
	}
}

// TestCountersAcrossTakeSnapshot pins the counters over the handoff a
// streamed finalize makes: TakeSnapshot leaves the tracer a fresh CST,
// and a scrape can still land before the probes are removed. The miss
// counter is the table's growth, so it must start over with the table,
// not take the old length off the new one.
func TestCountersAcrossTakeSnapshot(t *testing.T) {
	col := metrics.NewCollector()
	tr := NewTracer(3, nil, Options{Collector: col})
	tr.MemAlloc(0x1000, 64, 0)
	const calls, distinct = 300, 11
	for i := 0; i < calls; i++ {
		feed(tr, mpispec.FSend, sendArgs(int64(i%distinct), 999, 3), int64(i*10), int64(i*10+5))
	}
	steps := []struct {
		name string
		do   func()
	}{
		{"TakeSnapshot", func() { tr.TakeSnapshot() }},
		{"ProbeStats", func() { tr.ProbeStats() }},
		{"Snapshot", func() { tr.Snapshot() }},
	}
	for _, step := range steps {
		step.do()
		c, h, m := tracerCounters(col)
		if c != calls || m != distinct || h != calls-distinct {
			t.Fatalf("after %s: calls/hits/misses = %d/%d/%d, want %d/%d/%d",
				step.name, c, h, m, calls, calls-distinct, distinct)
		}
	}
}

// TestTakeSnapshotAllocs: TakeSnapshot allocates only the snapshot it
// returns — the struct and its serialized grammars — and builds no
// fresh state for a rank that has stopped tracing. A taken tracer still
// answers Snapshot, ProbeStats and CSTLen as an empty one, and traces a
// call made after the take.
func TestTakeSnapshotAllocs(t *testing.T) {
	for _, mode := range []uint8{trace.TimingAggregated, trace.TimingLossy} {
		const runs = 20
		tracers := make([]*Tracer, runs+2) // AllocsPerRun warms up once
		for i := range tracers {
			tracers[i] = NewTracer(3, nil, Options{TimingMode: mode})
			for c := 0; c < 300; c++ {
				feed(tracers[i], mpispec.FSend, sendArgs(int64(c%11), 999, 3), int64(c*10), int64(c*10+5))
			}
		}
		spare := tracers[runs+1]
		parts := testing.AllocsPerRun(runs, func() {
			_ = spare.cfg.Serialize()
			if spare.tcomp != nil {
				_, _ = spare.tcomp.DurationGrammar(), spare.tcomp.IntervalGrammar()
			}
		})
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			tracers[next].TakeSnapshot()
			next++
		})
		if want := parts + 1; got != want {
			t.Errorf("timing mode %d: TakeSnapshot made %v allocations, its snapshot %v", mode, got, want)
		}
		taken := tracers[0]
		if s := taken.Snapshot(); s.Calls != 300 || s.Table.Len() != 0 || len(s.Grammar) != 2 {
			t.Errorf("timing mode %d: a taken tracer snapshots %d calls, %d CST entries, grammar %v",
				mode, s.Calls, s.Table.Len(), s.Grammar)
		}
		if st := taken.ProbeStats(); st.Calls != 300 || st.CSTEntries != 0 || taken.CSTLen() != 0 {
			t.Errorf("timing mode %d: a taken tracer probes %+v", mode, st)
		}
		// A rank that calls on after the take traces into empty state.
		feed(tracers[1], mpispec.FSend, sendArgs(1, 999, 3), 0, 5)
		if n := tracers[1].CSTLen(); n != 1 {
			t.Errorf("timing mode %d: a call after the take left %d CST entries", mode, n)
		}
	}
}

// TestSalvageIncrementsCounter checks the failure-path finalize
// counter.
func TestSalvageIncrementsCounter(t *testing.T) {
	col := metrics.NewCollector()
	tr := NewTracer(0, nil, Options{Collector: col})
	tr.MemAlloc(0x1000, 64, 0)
	feed(tr, mpispec.FSend, sendArgs(1, 999, 0), 0, 5)
	_, stats := SalvageFinalize([]*Tracer{tr}, map[int]error{}, "test failure")
	if stats.Metrics == nil {
		t.Fatal("salvage finalize produced no metrics report")
	}
	if got := stats.Metrics.Counters["pilgrim_trace_salvages_total"]; got != 1 {
		t.Fatalf("salvages = %d, want 1", got)
	}
}
