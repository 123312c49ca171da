package metrics

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// TracerStats is one tracer's live structural state, evaluated by a
// probe at scrape time (under the tracer's own lock, so scrapes are
// consistent with concurrent interception and Snapshot calls).
type TracerStats struct {
	Calls          int64
	CSTEntries     int
	GrammarRules   int
	GrammarSymbols int
	LiveSegments   int
}

func (a TracerStats) add(b TracerStats) TracerStats {
	a.Calls += b.Calls
	a.CSTEntries += b.CSTEntries
	a.GrammarRules += b.GrammarRules
	a.GrammarSymbols += b.GrammarSymbols
	a.LiveSegments += b.LiveSegments
	return a
}

// Collector is a run-scoped bundle of every Pilgrim metric family:
// pre-resolved hot-path handles for the tracer pipeline, the MPI
// runtime, and the trace writer, plus scrape-time probes into live
// tracer state. One Collector observes one run (or one experiment's
// sweep of runs — counters accumulate).
type Collector struct {
	reg   *Registry
	start time.Time

	// Tracer pipeline (internal/core hot path).
	TracerCalls   *Counter
	CSTHits       *Counter
	CSTMisses     *Counter
	PostNs        *Histogram
	StageEncodeNs *Histogram
	StageCSTNs    *Histogram
	StageCFGNs    *Histogram
	Snapshots     *Counter
	Salvages      *Counter

	// MPI runtime (mpi package).
	MsgsSent     *CounterVec // label: rank
	BytesSent    *CounterVec // label: rank
	Collectives  *CounterVec // label: rank
	BlockedNs    *Histogram
	FaultEvents  *CounterVec // label: kind (crash, delay-msg, drop-msg, coll-fail)
	RankFailures *CounterVec // label: kind (crash, abort, panic, revoked, other)
	Deadlocks    *Counter

	// Trace writer (finalize).
	SectionBytes     *GaugeVec // label: section (cst, cfg, duration, interval)
	TraceBytes       *Gauge
	RawBytes         *Gauge
	CompressionRatio *Gauge
	FinalizeNs       *GaugeVec // label: phase (intra, cst_merge, cfg_merge)
	FinalizedCalls   *Gauge

	// Scrape-time probes into live tracers. A short cache keeps one
	// scrape from walking every grammar once per gauge family.
	probeMu  sync.Mutex
	probes   map[int64]func() TracerStats
	probeSeq int64
	cached   TracerStats
	cachedAt time.Time
}

// NewCollector builds a collector with every family registered.
func NewCollector() *Collector {
	reg := NewRegistry()
	c := &Collector{
		reg:    reg,
		start:  time.Now(),
		probes: make(map[int64]func() TracerStats),

		TracerCalls:   reg.Counter("pilgrim_tracer_calls_total", "MPI calls intercepted and compressed (all ranks)"),
		CSTHits:       reg.Counter("pilgrim_tracer_cst_hits_total", "calls whose signature was already in the CST"),
		CSTMisses:     reg.Counter("pilgrim_tracer_cst_misses_total", "calls that created a new CST entry"),
		PostNs:        reg.Histogram("pilgrim_tracer_post_ns", "per-call tracing overhead, whole pipeline (ns)"),
		StageEncodeNs: reg.Histogram("pilgrim_tracer_encode_ns", "per-call parameter encoding time (ns)"),
		StageCSTNs:    reg.Histogram("pilgrim_tracer_cst_ns", "per-call CST lookup/insert time (ns)"),
		StageCFGNs:    reg.Histogram("pilgrim_tracer_cfg_ns", "per-call grammar growth time (ns)"),
		Snapshots:     reg.Counter("pilgrim_tracer_snapshots_total", "crash-consistent tracer snapshots taken"),
		Salvages:      reg.Counter("pilgrim_trace_salvages_total", "failure-path (salvage) finalizes performed"),

		MsgsSent:     reg.CounterVec("pilgrim_mpi_messages_total", "point-to-point messages posted", "rank"),
		BytesSent:    reg.CounterVec("pilgrim_mpi_bytes_total", "point-to-point payload bytes posted", "rank"),
		Collectives:  reg.CounterVec("pilgrim_mpi_collectives_total", "collective rendezvous participations", "rank"),
		BlockedNs:    reg.Histogram("pilgrim_mpi_blocked_ns", "wall time spent blocked in MPI operations (ns)"),
		FaultEvents:  reg.CounterVec("pilgrim_mpi_fault_events_total", "injected fault activations", "kind"),
		RankFailures: reg.CounterVec("pilgrim_mpi_rank_failures_total", "rank failures by classified kind", "kind"),
		Deadlocks:    reg.Counter("pilgrim_mpi_deadlocks_total", "runs halted by the deadlock/quiescence watchdog"),

		SectionBytes:     reg.GaugeVec("pilgrim_trace_section_bytes", "serialized trace section sizes at finalize", "section"),
		TraceBytes:       reg.Gauge("pilgrim_trace_bytes", "total serialized trace size at finalize"),
		RawBytes:         reg.Gauge("pilgrim_trace_raw_bytes", "estimated uncompressed signature-stream size"),
		CompressionRatio: reg.Gauge("pilgrim_trace_compression_ratio", "raw_bytes / trace_bytes at finalize"),
		FinalizeNs:       reg.GaugeVec("pilgrim_core_finalize_ns", "finalize time decomposition (ns)", "phase"),
		FinalizedCalls:   reg.Gauge("pilgrim_trace_total_calls", "calls covered by the finalized trace"),
	}
	reg.GaugeFunc("pilgrim_tracer_cst_entries", "live unique call signatures (all ranks)",
		func() float64 { return float64(c.probeTotals().CSTEntries) })
	reg.GaugeFunc("pilgrim_tracer_grammar_rules", "live grammar production rules (all ranks)",
		func() float64 { return float64(c.probeTotals().GrammarRules) })
	reg.GaugeFunc("pilgrim_tracer_grammar_symbols", "live grammar right-hand-side symbols (all ranks)",
		func() float64 { return float64(c.probeTotals().GrammarSymbols) })
	reg.GaugeFunc("pilgrim_tracer_mem_segments", "live tracked memory segments in the AVL trees (all ranks)",
		func() float64 { return float64(c.probeTotals().LiveSegments) })
	return c
}

// ObservePost records one intercepted call's stage decomposition into
// the four tracer histograms with a single shard pick — the batched
// form the tracer hot path uses instead of four Observe calls.
func (c *Collector) ObservePost(encNs, cstNs, cfgNs, totalNs int64) {
	i := shardHint() & (histShards - 1)
	c.StageEncodeNs.observeShard(i, encNs)
	c.StageCSTNs.observeShard(i, cstNs)
	c.StageCFGNs.observeShard(i, cfgNs)
	c.PostNs.observeShard(i, totalNs)
}

// Registry exposes the underlying registry (for serving and tests).
func (c *Collector) Registry() *Registry { return c.reg }

// Report snapshots every metric.
func (c *Collector) Report() *Report {
	c.probeTotals()
	return c.reg.Report()
}

// AddTracerProbe registers a scrape-time probe into one tracer's live
// state and returns its removal function. pilgrim.RunSim registers one
// probe per rank and removes them after finalize, so a reused
// collector's gauges never double-count finished runs.
func (c *Collector) AddTracerProbe(f func() TracerStats) (remove func()) {
	c.probeMu.Lock()
	c.probeSeq++
	id := c.probeSeq
	c.probes[id] = f
	c.cachedAt = time.Time{}
	c.probeMu.Unlock()
	return func() {
		c.probeMu.Lock()
		delete(c.probes, id)
		c.cachedAt = time.Time{}
		c.probeMu.Unlock()
	}
}

// probeTotals sums every live probe, caching the walk briefly so one
// scrape evaluating four gauge families pays for it once. A tracer's
// probe also brings its share of the call counters up to date, which
// is why a scrape walks the probes before it reads anything: families
// render in name order, and pilgrim_tracer_calls_total comes before
// the first gauge that would get here.
func (c *Collector) probeTotals() TracerStats {
	c.probeMu.Lock()
	defer c.probeMu.Unlock()
	if !c.cachedAt.IsZero() && time.Since(c.cachedAt) < 20*time.Millisecond {
		return c.cached
	}
	var tot TracerStats
	for _, f := range c.probes {
		tot = tot.add(f())
	}
	c.cached = tot
	c.cachedAt = time.Now()
	return tot
}

// RecordTraceSections publishes the trace writer's per-section byte
// breakdown and compression ratio at finalize.
func (c *Collector) RecordTraceSections(cstB, cfgB, durB, intB, totalB int, rawB, totalCalls int64) {
	c.SectionBytes.With("cst").SetInt(int64(cstB))
	c.SectionBytes.With("cfg").SetInt(int64(cfgB))
	c.SectionBytes.With("duration").SetInt(int64(durB))
	c.SectionBytes.With("interval").SetInt(int64(intB))
	c.TraceBytes.SetInt(int64(totalB))
	c.RawBytes.SetInt(rawB)
	c.FinalizedCalls.SetInt(totalCalls)
	if totalB > 0 {
		c.CompressionRatio.Set(float64(rawB) / float64(totalB))
	}
}

// RecordFinalize publishes the finalize time decomposition.
func (c *Collector) RecordFinalize(intraNs, cstMergeNs, cfgMergeNs int64) {
	c.FinalizeNs.With("intra").SetInt(intraNs)
	c.FinalizeNs.With("cst_merge").SetInt(cstMergeNs)
	c.FinalizeNs.With("cfg_merge").SetInt(cfgMergeNs)
}

// StartReporter emits a one-line progress summary to w every interval
// until the returned stop function is called. Intended for long runs:
// the line compresses the tracer, MPI, and blocked-time families into
// something a human can tail.
func (c *Collector) StartReporter(w io.Writer, every time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(w, c.ProgressLine())
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// ProgressLine renders the current one-line run summary.
func (c *Collector) ProgressLine() string {
	p := c.probeTotals()
	blocked := c.BlockedNs.Snapshot()
	return fmt.Sprintf(
		"pilgrim: +%.1fs calls=%d cst=%d rules=%d syms=%d segs=%d msgs=%d sentMB=%.2f colls=%d blocked.p95=%.2fms",
		time.Since(c.start).Seconds(),
		c.TracerCalls.Load(), p.CSTEntries, p.GrammarRules, p.GrammarSymbols, p.LiveSegments,
		c.MsgsSent.Sum(), float64(c.BytesSent.Sum())/1e6, c.Collectives.Sum(),
		blocked.Quantile(0.95)/1e6)
}
