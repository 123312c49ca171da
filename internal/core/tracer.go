// Package core is Pilgrim's primary contribution: the per-process
// tracing pipeline (intercept → encode parameters → update CST → grow
// CFG, §3) and the inter-process compression at finalize (§3.5). It
// also contains the decoder that recovers per-rank call streams from a
// compressed trace, used to validate that compression is lossless.
package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
	"unsafe"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/metrics"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/timing"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// Options configures a Tracer.
type Options struct {
	// TimingMode selects trace.TimingAggregated (default: only mean
	// durations per CST entry) or trace.TimingLossy (per-call
	// duration/interval grammars with relative error < TimingBase-1).
	TimingMode uint8
	// TimingBase is the exponential-bin base b (default 1.2 = 20%).
	TimingBase float64
	// Verify keeps the raw signature stream in memory so tests can
	// compare it with the decoded trace. Costs O(calls) memory.
	Verify bool
	// Encoding disables individual encoding optimizations (ablations).
	Encoding sig.Options

	// Collector, when non-nil, receives live self-observability
	// metrics: per-stage tracing overhead histograms (a sample: calls
	// Post times, about one in 16), CST hit/miss counters, and
	// finalize/trace-writer gauges. Only a timed call looks at it.
	// Serving it (pilgrim.ServeMetrics) or reporting its progress
	// (pilgrim.StartProgressReporter) is the caller's affair.
	Collector *metrics.Collector

	// CollectorAddr, when non-empty, makes pilgrim.RunSim stream every
	// rank's finalize-time snapshot to the pilgrim-collectd at this
	// host:port instead of merging locally; the merged trace is fetched
	// back from the collector, so callers see the same *trace.File
	// either way. If the collector is unreachable (or dies mid-run) the
	// run falls back to the local merge. The core package itself never
	// dials; the wiring lives in pilgrim.RunSim.
	CollectorAddr string
	// CollectorRunID names the run at the collector (admin API, output
	// file). Empty means pilgrim.RunSim generates a unique one.
	CollectorRunID string

	// ObsSink, when non-nil, receives pipeline span tracing: every
	// finalize stage (snapshot, CST merge, relabel, grammar dedup/pack,
	// timing branch) records a span into the flight recorder, and
	// pilgrim.RunSim forwards the same sink to the collector client so
	// the networked path is covered end to end. Nil (the default) costs
	// one pointer check per instrumented site and zero allocations —
	// the same discipline as Collector.
	ObsSink *obs.Sink

	// SpillDir, when non-empty, makes pilgrim.RunSim finalize without
	// holding every rank's snapshot in memory: ranks are snapshotted a
	// batch at a time, each batch is appended to a frame-pair log under
	// this directory (internal/framelog: the MANIFEST.json + frames.jnl
	// layout the collector journals, readable by pilgrim-dump -journal
	// and replayable by pilgrim-loadgen) and
	// finalized straight from memory while the next batch is taken, and
	// the batch is dropped. The produced trace is byte-identical to the
	// in-memory finalize; peak resident snapshots drop from O(ranks) to
	// MaxResidentSnapshots, or two batches without a cap. The core
	// package itself never touches the filesystem; the wiring lives in
	// internal/spill and pilgrim.RunSim.
	SpillDir string
	// MaxResidentSnapshots caps how many rank snapshots a streamed
	// finalize keeps in memory at once. FinalizeStreamed (SpillDir)
	// counts a snapshot from the fetch that returns it to the end of
	// its Walk.Add and fetches batches of half the cap, a batch ahead
	// of the walk (at 1, without overlap); the collector's
	// journal-backed finalize caps its walk's batch (BatchSize) at it.
	// 0 (the default) sets no cap: batches of a sixteenth of the world,
	// two of them resident at once. Validate refuses a negative cap.
	// The output is byte-identical for every cap.
	MaxResidentSnapshots int
}

func (o Options) withDefaults() Options {
	o.TimingBase = trace.DefaultBase(o.TimingBase)
	return o
}

// Validate refuses options no run can trace with: a timing mode and
// base, once defaulted, that trace.CheckTiming refuses, or a negative
// resident snapshot cap.
func (o Options) Validate() error {
	o = o.withDefaults()
	if err := trace.CheckTiming(o.TimingMode, o.TimingBase); err != nil {
		return err
	}
	if o.MaxResidentSnapshots < 0 {
		return fmt.Errorf("max resident snapshots %d is negative", o.MaxResidentSnapshots)
	}
	return nil
}

// Tracer is the per-rank interceptor: it implements
// mpispec.Interceptor and accumulates the rank's CST and CFG.
//
// The interception hooks run on the rank's goroutine; mu additionally
// makes the accumulated state readable from outside it (Snapshot), so
// a monitor can serialize a crash-consistent copy while the rank runs.
//
// A Tracer is all of its rank's tracing state in one allocation: the
// encoder, the CST and the call grammar are held by value, with the
// first storage of the signature scratch. NewTracer builds every
// rank's tracer on one goroutine, back to back, and the ranks then
// trace on other goroutines, so the fields Post writes on every call
// lie at least 128 B from either end, between the read-only head below
// (padded to 128 B by headPad) and the encoder's cold tail (DESIGN §4,
// "One allocation per rank").
type Tracer struct {
	Rank int
	opts Options
	_    [headPad]byte

	mu     sync.Mutex
	tcomp  *timing.Compressor
	sigBuf []byte // per-call signature scratch, starting in sigMem

	// Overhead accounting (intra-process tracing cost, wall time), an
	// estimate: Post reads the clock on a sample of calls and a timed
	// call counts for itself and the untimed calls before it (see
	// postTimed). The encoder's blocking OOB wait is kept exactly, by
	// the encoder; Snapshot adds it. Guarded by mu while the rank is
	// live.
	IntraNs int64
	NCalls  int64

	// Sampling state, guarded by mu. The two marks are low 32 bits: a
	// flush is never 2^32 calls late.
	rng       uint32 // xorshift32, seeded from the rank
	callsMark uint32 // NCalls at the last counter flush
	cstMark   uint32 // table.Len() at the last counter flush
	countdown uint8  // untimed calls left before the next timed one
	gap       uint8  // value countdown started from
	ramp      uint8  // a gap is drawn from [0, 1<<ramp)

	started bool // table and cfg are initialised (start)

	verify *capture // Options.Verify, made by the first call

	table  cst.Table
	cfg    sequitur.Grammar
	sigMem [64]byte

	enc sig.Encoder
}

// headPad is the cold padding after a Tracer's read-only head, Rank and
// opts, that puts the first field Post writes 128 B in. A head that
// outgrows 128 B fails to compile.
const headPad = 128 - unsafe.Sizeof(int(0)) - unsafe.Sizeof(Options{})

// capture is the raw call stream Options.Verify keeps.
type capture struct {
	sigs  []string
	times [][2]int64
}

// slabs is the storage a rank's CST and call grammar start in: a short
// rank's whole footprint (a cg rank's 34 calls: 7 signatures, 10
// symbols), so it grows none of them. The rank's first call allocates
// it, on the rank's own goroutine: a rank that outgrows every part lets
// it go, which a part held inside the Tracer could not, and no other
// rank's tracer is built next to it.
type slabs struct {
	cfg sequitur.Slab
	cst cst.Slab
}

// keySlab is how many bytes of signatures a rank's CST copies into one
// allocation before it allocates each new one apart: a cg rank's seven
// take 67. It is an allocation of its own, not part of the Tracer or
// of slabs: a table moved or cloned out of the tracer keeps its keys,
// and the finalize walk reads them rank after rank, so they are packed
// densely, away from everything else a rank holds.
const keySlab = 160

// The sampling law. A rank's first warmCalls calls are all timed, so
// the cold CST misses and slab growth are measured, not extrapolated.
// After that the number of untimed calls before the next timed one is
// uniform on [0, 1<<ramp), ramp stepping 1, 2, ... maxRamp with each
// timed call: a rank of a few dozen calls is not all warm-up, and a
// long one settles at one timed call in (1<<maxRamp + 1) / 2 = 16.5.
const (
	warmCalls = 8
	maxRamp   = 5
)

// NewTracer builds the tracing state for one rank, in one allocation.
// oob provides the PMPI-level collectives used to agree on communicator
// ids; it may be nil only if no communicator-creating calls occur.
func NewTracer(rank int, oob mpispec.OOB, opts Options) *Tracer {
	t := &Tracer{
		Rank: rank,
		opts: opts.withDefaults(),
		// Odd times odd: never the zero xorshift cannot leave, and
		// neighbouring ranks start far apart.
		rng: (uint32(rank)<<1 | 1) * 0x9E3779B1,
	}
	t.sigBuf = t.sigMem[:0]
	t.enc.Init(rank, oob, t.opts.Encoding)
	return t
}

// Pre implements mpispec.Interceptor (the prologue records timestamps
// via the CallRecord itself; nothing else to do before the call).
func (t *Tracer) Pre(rec *mpispec.CallRecord) {}

// Post implements mpispec.Interceptor: the steps 3-5 of Figure 2. It
// reads no clock and touches no collector; the call in ~16 that does
// both is postTimed.
func (t *Tracer) Post(rec *mpispec.CallRecord) {
	t.mu.Lock()
	if t.countdown == 0 {
		t.postTimed(rec)
		return
	}
	t.countdown--
	s := t.enc.EncodeTo(t.sigBuf[:0], rec)
	t.sigBuf = s
	term := t.table.Add(s, rec.TEnd-rec.TStart)
	t.cfg.Append(term)
	if t.tcomp != nil || t.opts.Verify {
		t.keep(term, s, rec)
	}
	t.NCalls++
	t.mu.Unlock()
}

// keep is what a call leaves behind besides its terminal: the lossy
// timing streams and the verification capture.
func (t *Tracer) keep(term int32, s []byte, rec *mpispec.CallRecord) {
	if t.tcomp != nil {
		t.tcomp.Record(term, rec.Func, rec.TStart, rec.TEnd)
	}
	if t.opts.Verify {
		if t.verify == nil {
			t.verify = new(capture)
		}
		t.verify.sigs = append(t.verify.sigs, string(s))
		t.verify.times = append(t.verify.times, [2]int64{rec.TStart, rec.TEnd})
	}
}

// postTimed is Post on a sampled call, entered with mu held: the same
// steps between clock reads. The call stands for itself and the gap
// untimed calls since the previous timed one, so its duration enters
// IntraNs gap+1 times: whatever the gaps were, every call up to this
// one is then counted once, with no ratio to take at snapshot (the
// calls after the last timed one, 31 at most, are not in yet). The
// gaps are drawn without looking at the calls, so a call's chance of
// being the timed one and the weight it then gets multiply to one
// (DESIGN §4 item 11). The duration leaves out a blocking OOB agreement
// inside the encoder (Comm_split, Comm_dup): that wait is two calls per
// rank and microseconds to milliseconds long, no sample of it
// extrapolates, and the encoder keeps it exactly.
// With a collector attached a call past the ramp also takes the three
// stage boundaries for the histograms, which therefore hold a uniform
// sample of a rank's calls from its ~40th on, and every timed call
// brings the call counters up to date.
func (t *Tracer) postTimed(rec *mpispec.CallRecord) {
	t.start()
	m := t.opts.Collector
	if t.ramp < maxRamp {
		// The histograms take only samples drawn at the full gap law,
		// one call in 16.5 each: a warm-up or ramp call stands for fewer
		// calls and would weigh up to 16 times too much among them, and
		// a rank of a few dozen calls would pay the stage clocks on a
		// third of its calls.
		m = nil
	}
	var dEnc, dCST, dCFG time.Duration
	wait := t.enc.OOBWaitNs()
	w0 := now()
	s := t.enc.EncodeTo(t.sigBuf[:0], rec)
	t.sigBuf = s
	if m != nil {
		dEnc = now() - w0
	}
	term := t.table.Add(s, rec.TEnd-rec.TStart)
	if m != nil {
		dCST = now() - w0
	}
	t.cfg.Append(term)
	if m != nil {
		dCFG = now() - w0
	}
	if t.tcomp != nil || t.opts.Verify {
		t.keep(term, s, rec)
	}
	d := now() - w0
	wait = t.enc.OOBWaitNs() - wait
	t.IntraNs += (d.Nanoseconds() - wait) * (int64(t.gap) + 1)
	t.NCalls++

	t.flushCounters()

	// The next gap. xorshift32 and not a stride: a loop body of 8, 16
	// or 32 calls would put a fixed stride on the same call forever.
	t.gap = 0
	if t.NCalls >= warmCalls {
		if t.ramp < maxRamp {
			t.ramp++
		}
		x := t.rng
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t.rng = x
		t.gap = uint8(x >> (32 - t.ramp))
	}
	t.countdown = t.gap
	t.mu.Unlock()
	if m != nil {
		// After the unlock, so a scrape contending for the histograms'
		// cache lines never extends the critical section.
		m.ObservePost(dEnc.Nanoseconds(), (dCST - dEnc).Nanoseconds(),
			(dCFG - dCST).Nanoseconds(), d.Nanoseconds())
	}
}

// flushCounters adds the calls since the last flush to the collector's
// call, CST-hit and CST-miss counters; mu is held. A miss is a call
// that grew the table, so the misses are the table's growth. Timed
// calls flush, and so does everything that reads the tracer from
// outside (ProbeStats, Snapshot, TakeSnapshot), so the counters are
// exact whenever somebody looks.
func (t *Tracer) flushCounters() {
	m := t.opts.Collector
	if m == nil {
		return
	}
	calls := int64(uint32(t.NCalls) - t.callsMark)
	misses := int64(uint32(t.table.Len()) - t.cstMark)
	t.callsMark += uint32(calls)
	t.cstMark += uint32(misses)
	m.TracerCalls.Add(calls)
	m.CSTMisses.Add(misses)
	m.CSTHits.Add(calls - misses)
}

// ProbeStats evaluates the tracer's live structural state under its
// lock, for scrape-time metrics gauges. Safe to call from any
// goroutine while the rank keeps tracing.
func (t *Tracer) ProbeStats() metrics.TracerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.start()
	t.flushCounters()
	gs := t.cfg.Stats()
	return metrics.TracerStats{
		Calls:          t.NCalls,
		CSTEntries:     t.table.Len(),
		GrammarRules:   gs.Rules,
		GrammarSymbols: gs.Symbols,
		LiveSegments:   t.enc.LiveSegments(),
	}
}

// MemAlloc implements mpispec.Interceptor (malloc interception).
func (t *Tracer) MemAlloc(addr, size uint64, device int32) {
	w0 := now()
	t.mu.Lock()
	t.enc.MemAlloc(addr, size, device)
	t.IntraNs += int64(now() - w0)
	t.mu.Unlock()
}

// MemFree implements mpispec.Interceptor (free interception).
func (t *Tracer) MemFree(addr uint64) {
	w0 := now()
	t.mu.Lock()
	t.enc.MemFree(addr)
	t.IntraNs += int64(now() - w0)
	t.mu.Unlock()
}

// epoch anchors the tracer's clock. time.Since of a time that carries
// a monotonic reading reads the monotonic clock alone, where time.Now
// reads the wall clock as well; a boundary costs one clock read.
var epoch = time.Now()

// now is the monotonic time since epoch.
func now() time.Duration { return time.Since(epoch) }

// BindOOB late-binds the tracer's out-of-band collective interface
// (used when the runtime rank object is created after the tracer).
func BindOOB(t *Tracer, oob mpispec.OOB) { t.enc.SetOOB(oob) }

// CSTLen returns the number of unique call signatures seen so far.
func (t *Tracer) CSTLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.start()
	return t.table.Len()
}

// RawSignatures returns the captured uncompressed signature stream
// (Verify mode only).
func (t *Tracer) RawSignatures() []string {
	if t.verify == nil {
		return nil
	}
	return t.verify.sigs
}

// RawTimes returns the captured per-call (tStart, tEnd) pairs (Verify
// mode only).
func (t *Tracer) RawTimes() [][2]int64 {
	if t.verify == nil {
		return nil
	}
	return t.verify.times
}

// FinalizeStats reports where finalize time went (Figure 8's
// decomposition) plus structural counts.
type FinalizeStats struct {
	IntraNs int64 // summed per-rank intra-process compression time (Tracer.IntraNs: an estimate from the timed calls)
	// CSTMergeNs is the inter-process compression of CSTs: the walk's
	// rank-order fold of the tables plus the per-rank relabel, or, given
	// a premerged table, the caller's merge time plus the relabel. The
	// spill route's frame I/O is charged to no field.
	CSTMergeNs int64
	// CFGMergeNs is the inter-process compression of CFGs, identity
	// check plus final Sequitur pass. It is work, not wall time: the
	// final pass runs beside the walk on its own goroutines (one per
	// section) and is charged the time it spent busy there.
	CFGMergeNs   int64
	UniqueCFGs   int
	UniqueShapes int // of the unique grammars; the final pass packs one per shape (DESIGN §4d)
	TotalCalls   int64
	GlobalCST    int // entries in the merged table
	TraceBytes   int

	// Metrics is the final self-observability report, populated when
	// the run had a metrics Collector attached (Options.Collector); nil
	// otherwise.
	Metrics *metrics.Report
}

// Snapshot is a crash-consistent copy of one rank's tracing state: an
// immutable CST clone plus the serialized grammars. It can be taken
// from any goroutine while the rank keeps tracing, and is the unit the
// salvage path merges when a run fails before MPI_Finalize.
type Snapshot struct {
	Rank    int
	Calls   int64
	IntraNs int64

	Table      *cst.Table
	Grammar    sequitur.Serialized
	DurGrammar sequitur.Serialized // lossy timing mode only
	IntGrammar sequitur.Serialized // lossy timing mode only
}

// Snapshot serializes the tracer's current state under its lock. Safe
// to call concurrently with interception from the rank goroutine.
func (t *Tracer) Snapshot() *Snapshot {
	if m := t.opts.Collector; m != nil {
		m.Snapshots.Inc()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.start()
	t.flushCounters()
	s := &Snapshot{
		Rank:    t.Rank,
		Calls:   t.NCalls,
		IntraNs: t.IntraNs + t.enc.OOBWaitNs(),
		Table:   t.table.Clone(),
		Grammar: sequitur.Serialized(t.cfg.Serialize()),
	}
	if t.tcomp != nil {
		s.DurGrammar = t.tcomp.DurationGrammar()
		s.IntGrammar = t.tcomp.IntervalGrammar()
	}
	return s
}

// TakeSnapshot is Snapshot with move semantics: the rank's CST and
// grammar state transfer into the returned snapshot without cloning,
// and the tracer is left empty, so a streaming finalize can spill
// rank i's snapshot to disk and free it before touching rank i+1.
// The verification capture (Options.Verify) stays with the tracer,
// which post-run lossless verification reads. Must only be called
// once the rank has stopped tracing (end of run or salvage); it
// allocates only the snapshot it returns, whose table's header shares
// its allocation.
func (t *Tracer) TakeSnapshot() *Snapshot {
	if m := t.opts.Collector; m != nil {
		m.Snapshots.Inc()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.start()
	t.flushCounters()
	taken := &struct {
		Snapshot
		table cst.Table
	}{table: t.table}
	s := &taken.Snapshot
	*s = Snapshot{
		Rank:    t.Rank,
		Calls:   t.NCalls,
		IntraNs: t.IntraNs + t.enc.OOBWaitNs(),
		Table:   &taken.table,
		Grammar: sequitur.Serialized(t.cfg.Serialize()),
	}
	if t.tcomp != nil {
		s.DurGrammar = t.tcomp.DurationGrammar()
		s.IntGrammar = t.tcomp.IntervalGrammar()
	}
	// A rank that calls on anyway takes the timed path, which starts
	// afresh.
	t.table, t.cfg, t.tcomp = cst.Table{}, sequitur.Grammar{}, nil
	t.started, t.countdown = false, 0
	return s
}

// start gives a tracer with no state (new, or whose state TakeSnapshot
// moved out) an empty one; mu is held. It is the rank's first call that
// starts it, on the rank's goroutine, unless a reader comes first. A
// fresh table starts the miss count over; without this the next flush
// would take the old length off the new one and walk the miss counter
// backwards.
func (t *Tracer) start() {
	if t.started {
		return
	}
	s := new(slabs)
	t.table.Init(&s.cst, make([]byte, 0, keySlab))
	t.cfg.Init(&s.cfg)
	if t.opts.TimingMode == trace.TimingLossy {
		t.tcomp = timing.New(t.opts.TimingBase)
	}
	t.started, t.cstMark = true, 0
}

// Finalize performs the inter-process compression over all ranks'
// tracers and produces the trace file (§3.5). It corresponds to the
// work Pilgrim does inside MPI_Finalize.
func Finalize(tracers []*Tracer) (*trace.File, FinalizeStats) {
	return FinalizeSnapshots(Snapshots(tracers), OptionsOf(tracers), nil)
}

// OptionsOf returns the options the first of tracers was built with,
// defaulted, which a finalize over them runs with; the zero Options
// for none.
func OptionsOf(tracers []*Tracer) Options {
	if len(tracers) == 0 {
		return Options{}
	}
	return tracers[0].opts
}

// NewSalvageInfo starts the tag of a salvage finalize: the reason and
// the failed ranks in ascending order. The walk that finishes the
// trace fills in every rank's calls.
func NewSalvageInfo(failed map[int]error, reason string) *trace.SalvageInfo {
	info := &trace.SalvageInfo{Reason: reason}
	for r := range failed {
		info.FailedRanks = append(info.FailedRanks, int32(r))
	}
	slices.Sort(info.FailedRanks)
	return info
}

// FinalizeSnapshots is the finalize walk over resident snapshots, in
// rank order; info, when non-nil, tags the trace as a salvage (see
// Walk.Finish). The snapshots may come from Snapshots, after a run or
// after its failure (the ranks may be dead or unwound; any still
// running are snapshotted consistently), or from a monitor.
func FinalizeSnapshots(snaps []*Snapshot, opts Options, info *trace.SalvageInfo) (*trace.File, FinalizeStats) {
	return NewWalk(len(snaps), opts).resident(snaps, info)
}

// Snapshots snapshots every tracer on GOMAXPROCS workers: each
// Snapshot serializes that rank's grammars (and, in lossy timing mode,
// its two timing grammars) under the rank's own lock, so the per-rank
// serialization loop parallelizes trivially. The span goes to the
// tracers' ObsSink (OptionsOf).
func Snapshots(tracers []*Tracer) []*Snapshot {
	sp := OptionsOf(tracers).ObsSink.Start("finalize", "finalize.snapshot").WithAttr("ranks", int64(len(tracers)))
	snaps := make([]*Snapshot, len(tracers))
	par.For(len(tracers), runtime.GOMAXPROCS(0), func(i int) {
		snaps[i] = tracers[i].Snapshot()
	})
	sp.End()
	return snaps
}

// FinalizePremerged finishes the §3.5 merge over snapshots whose CSTs
// were already unified, for instance by cst.Incremental in arrival
// order. merged must cover exactly snaps in order (rank i of the merge
// is snaps[i]); cstMergeNs is the time the caller spent producing it.
// The resulting trace is identical to finalizing the same snapshots
// locally, because cst.Incremental reproduces the rank-order fold
// exactly.
func FinalizePremerged(snaps []*Snapshot, merged cst.Merged, cstMergeNs int64, opts Options, info *trace.SalvageInfo) (*trace.File, FinalizeStats) {
	return newWalk(len(snaps), &merged, cstMergeNs, opts).resident(snaps, info)
}

// resident walks resident snapshots in batches of Options.BatchSize
// sliced from the array. Nothing is fetched, so nothing is fetched
// ahead: a goroutine per batch would only add its start-up to a
// 16-rank finalize. The walk is FinalizeStreamed's, so the in-memory
// and streamed routes stay byte-identical by construction.
func (w *Walk) resident(snaps []*Snapshot, info *trace.SalvageInfo) (*trace.File, FinalizeStats) {
	defer w.Stop()
	batch := w.opts.BatchSize(len(snaps))
	for start := 0; start < len(snaps); start += batch {
		if err := w.Add(snaps[start:min(start+batch, len(snaps))]); err != nil {
			// A resident snapshot's grammar names only terminals of the
			// table it was built or decoded with; an error here is a
			// broken invariant, not an I/O condition the caller can
			// handle.
			panic(fmt.Sprintf("core: in-memory finalize: %v", err))
		}
	}
	f, st, _ := w.Finish(info) // fails only short of the last rank
	return f, st
}

// grammarKey is g's ints as a string, a map key: one allocation, which
// the string takes over.
func grammarKey(g sequitur.Serialized) string {
	b := make([]byte, len(g)*4)
	for i, v := range g {
		b[i*4] = byte(v)
		b[i*4+1] = byte(v >> 8)
		b[i*4+2] = byte(v >> 16)
		b[i*4+3] = byte(v >> 24)
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
