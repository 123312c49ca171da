// Package loadgen is Pilgrim's wire-stream replay load generator: it
// reads captured collector journals (a complete wire-format recording
// of a run's ingest stream — see internal/collect's journal) and fires
// them back at a live collector with controlled pacing, chaos
// injection, and N-way amplification.
//
// Amplification is the trick that makes one capture soak a fleet: the
// same frame pairs are re-keyed onto thousands of synthetic run IDs by
// patching the run-ID field of each Hello frame and recomputing its
// CRC32C trailer (wire.RekeyHelloFrame) — no decode, no re-encode, and
// the (much larger) snapshot frames are shared verbatim across every
// amplified copy. Pacing is either closed-loop (the capture's recorded
// inter-frame timing divided by Speedup) or open-loop (a global slot
// pacer offering Rate pairs/sec regardless of how fast the collector
// acks). Chaos — jitter, drops, duplicates, reorders, per-rank
// straggler hold-back — drives exactly the degraded paths the
// collector grew in earlier PRs: idempotent dedupe, admission NACKs,
// straggler-deadline salvage.
package loadgen

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// Config parameterizes one replay campaign.
type Config struct {
	// Addr is the collector's TCP ingest address.
	Addr string
	// Journals are run journal directories to replay (each holding
	// MANIFEST.json + frames.jnl; resolve with framelog.Find).
	Journals []string

	// Amplify is how many synthetic copies of each journal to replay
	// (<= 1 replays once under the original run ID; > 1 re-keys every
	// copy onto "<orig>-lg<i>").
	Amplify int
	// RunPrefix overrides the synthetic ID base: IDs become
	// "<RunPrefix>-<orig>-lg<i>". Also forces re-keying at Amplify 1, so
	// a capture can be re-offered to the collector that made it without
	// colliding with the original run.
	RunPrefix string

	// Speedup divides the capture's recorded inter-frame gaps
	// (closed-loop pacing; <= 0 means 1). Ignored when Rate is set.
	Speedup float64
	// Rate switches to open-loop pacing: a global pacer offers this many
	// pairs/sec across all streams, never slowing down for a lagging
	// collector — the gap between offered and achieved rate IS the
	// measurement. 0 keeps closed-loop pacing.
	Rate float64

	// Chaos. All probabilities are per frame pair in [0,1]; Seed makes a
	// campaign reproducible (0 derives per-stream seeds from IDs alone).
	Seed    int64
	Jitter  float64 // extra pacing noise: each delay scaled by ±Jitter
	Drop    float64 // probability a pair is silently skipped (gap)
	Dup     float64 // probability a pair is sent twice back to back
	Reorder float64 // probability a pair swaps with its successor
	// HoldRanks holds back each stream's highest N ranks — the synthetic
	// stragglers. With HoldFor > 0 their pairs land late, after the rest
	// of the stream plus HoldFor; with HoldFor == 0 they never land and
	// the run must finish through the collector's straggler-deadline
	// salvage path.
	HoldRanks int
	HoldFor   time.Duration

	// Wait, when set, blocks on each surviving stream's run after its
	// pairs are sent and receives the finalized trace (the closed-loop
	// end-to-end completion check; bytes are counted then discarded).
	Wait bool

	// MaxConns bounds concurrently replaying streams (default 64).
	MaxConns int
	// IOTimeout bounds each dial/read/write (default 30s).
	IOTimeout time.Duration

	// Metrics receives the campaign's instrumentation; nil creates a
	// private registry (reachable via Runner.Metrics).
	Metrics *Metrics
	// Obs, when non-nil, records stream-level replay spans.
	Obs  *obs.Sink
	Logf func(format string, args ...any)
}

// Report is a campaign's JSON run report (pilgrim-loadgen -report):
// offered vs achieved rate, ack round-trip percentiles, chaos counts.
type Report struct {
	Journals int `json:"journals"`
	Streams  int `json:"streams"`
	Amplify  int `json:"amplify"`

	PairsPlanned int64 `json:"pairs_planned"` // streams × pairs per capture
	PairsSent    int64 `json:"pairs_sent"`
	BytesSent    int64 `json:"bytes_sent"`

	Acks     int64 `json:"acks"`
	AckDups  int64 `json:"ack_duplicates"`
	AckErrs  int64 `json:"ack_errors"`
	Nacks    int64 `json:"nacks"`
	SendErrs int64 `json:"send_errors"`

	Dropped   int64 `json:"chaos_dropped"`
	Duped     int64 `json:"chaos_duplicated"`
	Reordered int64 `json:"chaos_reordered"`
	Held      int64 `json:"chaos_held"`

	NackedStreams int `json:"nacked_streams"` // aborted by admission control
	FailedStreams int `json:"failed_streams"` // aborted by transport errors

	ElapsedSec      float64 `json:"elapsed_sec"`
	OfferedRatePps  float64 `json:"offered_rate_pairs_per_sec"`
	AchievedRatePps float64 `json:"achieved_rate_pairs_per_sec"`

	AckLatencyP50Ms float64 `json:"ack_latency_p50_ms"`
	AckLatencyP95Ms float64 `json:"ack_latency_p95_ms"`
	AckLatencyP99Ms float64 `json:"ack_latency_p99_ms"`

	WaitedRuns int64 `json:"waited_runs,omitempty"`
	TraceBytes int64 `json:"trace_bytes,omitempty"`
}

// capture is one journal loaded into memory, shared read-only by every
// stream amplified from it.
type capture struct {
	man     framelog.Manifest
	entries []*framelog.Entry
}

// stream is one amplified replay of one capture: its own run ID, its
// own connection, its own deterministic chaos RNG.
type stream struct {
	cap   *capture
	runID string
	rekey bool
}

// Runner executes one campaign. Create with New, drive with Run.
type Runner struct {
	cfg     Config
	m       *Metrics
	obs     *obs.Sink
	streams []*stream
	planned int64

	doneStreams   atomic.Int64
	nackedStreams atomic.Int64
	failedStreams atomic.Int64
}

// New loads the configured journals and lays out the stream plan.
// Journals whose frames were dropped at finalize (captured without
// -keep-journal) are an error: there is nothing to replay.
func New(cfg Config) (*Runner, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("loadgen: no collector address")
	}
	if len(cfg.Journals) == 0 {
		return nil, fmt.Errorf("loadgen: no journals to replay")
	}
	if cfg.Amplify < 1 {
		cfg.Amplify = 1
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	r := &Runner{cfg: cfg, m: cfg.Metrics, obs: cfg.Obs}
	if r.m == nil {
		r.m = NewMetrics(nil)
	}
	for _, dir := range cfg.Journals {
		jr, err := framelog.OSDir(dir).Open()
		if err != nil {
			return nil, err
		}
		entries := jr.ReadAll()
		jr.Close()
		if torn, trunc := jr.Torn(); torn {
			r.logf("journal %s: torn tail (%d bytes ignored)", dir, trunc)
		}
		if len(entries) == 0 {
			return nil, fmt.Errorf("loadgen: journal %s holds no frames (captured without -keep-journal?)", dir)
		}
		cp := &capture{man: jr.Manifest(), entries: entries}
		for i := 0; i < cfg.Amplify; i++ {
			st := &stream{cap: cp, runID: cp.man.RunID}
			if cfg.Amplify > 1 || cfg.RunPrefix != "" {
				base := cp.man.RunID
				if cfg.RunPrefix != "" {
					base = cfg.RunPrefix + "-" + base
				}
				st.runID = fmt.Sprintf("%s-lg%04d", base, i)
				st.rekey = true
			}
			if len(st.runID) > wire.MaxRunID {
				return nil, fmt.Errorf("loadgen: synthetic run id %q exceeds %d bytes", st.runID, wire.MaxRunID)
			}
			r.streams = append(r.streams, st)
			r.planned += int64(len(entries))
		}
	}
	return r, nil
}

// Metrics returns the campaign's instrumentation bundle.
func (r *Runner) Metrics() *Metrics { return r.m }

// Planned returns the stream count and total planned pairs — the
// denominator for a live progress display.
func (r *Runner) Planned() (streams int, pairs int64) {
	return len(r.streams), r.planned
}

// DoneStreams returns how many streams have finished (any outcome).
func (r *Runner) DoneStreams() int64 { return r.doneStreams.Load() }

func (r *Runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

func (r *Runner) ioTimeout() time.Duration {
	if r.cfg.IOTimeout > 0 {
		return r.cfg.IOTimeout
	}
	return 30 * time.Second
}

// pacer is the open-loop clock: stream goroutines claim globally
// numbered send slots and sleep until their slot's scheduled instant.
// A collector that acks slowly does not slow the offered rate — the
// senders just fall behind their slots and stop sleeping, and the
// achieved rate sags below the offered one.
type pacer struct {
	start    time.Time
	interval float64 // ns between slots
	slot     atomic.Int64
}

func (p *pacer) wait(ctx context.Context) {
	s := p.slot.Add(1) - 1
	target := p.start.Add(time.Duration(float64(s) * p.interval))
	if d := time.Until(target); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
}

// Run executes the campaign and blocks until every stream finishes.
// Admission NACKs and transport failures abort their own stream and
// are counted, never returned — the report is the result. The error
// path is reserved for ctx cancellation.
func (r *Runner) Run(ctx context.Context) (*Report, error) {
	var pc *pacer
	if r.cfg.Rate > 0 {
		pc = &pacer{start: time.Now(), interval: 1e9 / r.cfg.Rate}
	}
	rsp := r.obs.Start("loadgen", "loadgen.run").
		WithAttr("streams", int64(len(r.streams))).WithAttr("pairs_planned", r.planned)
	t0 := time.Now()
	sem := make(chan struct{}, r.cfg.MaxConns)
	var wg sync.WaitGroup
	for _, st := range r.streams {
		wg.Add(1)
		go func(st *stream) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return
			}
			defer func() { <-sem }()
			r.m.ActiveStreams.Add(1)
			r.replayStream(ctx, st, pc)
			r.m.ActiveStreams.Add(-1)
			r.doneStreams.Add(1)
		}(st)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	rsp.WithAttr("acks", r.m.Acks.Load()).WithAttr("nacks", r.m.Nacks.Load()).End()
	rep := r.report(elapsed)
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// streamSeed derives a stream's chaos RNG seed: deterministic per
// (campaign seed, run ID), distinct across amplified copies.
func streamSeed(seed int64, runID string) int64 {
	h := fnv.New64a()
	h.Write([]byte(runID))
	return seed ^ int64(h.Sum64())
}

// replayStream sends one stream's frame pairs in capture order,
// applying pacing and chaos, over one connection (re-dialed on
// transport errors). Aborts on NACK or exhausted retries; both are
// counted, not fatal.
func (r *Runner) replayStream(ctx context.Context, st *stream, pc *pacer) {
	cfg := &r.cfg
	man := st.cap.man
	rng := rand.New(rand.NewSource(streamSeed(cfg.Seed, st.runID)))
	ssp := r.obs.Start("loadgen", "loadgen.stream").WithRun(st.runID, -1, man.Epoch).
		WithAttr("pairs", int64(len(st.cap.entries)))

	// Partition out the synthetic stragglers: the stream's HoldRanks
	// highest ranks are either delayed (HoldFor > 0) or withheld.
	holdFrom := man.World // ranks >= holdFrom are held
	if cfg.HoldRanks > 0 {
		holdFrom = man.World - cfg.HoldRanks
		if holdFrom < 1 {
			holdFrom = 1 // always let rank 0 through so the run exists
		}
	}
	var normal, held []*framelog.Entry
	for _, e := range st.cap.entries {
		if e.Hello.Rank >= holdFrom {
			held = append(held, e)
		} else {
			normal = append(normal, e)
		}
	}

	conn, ok := r.sendEntries(ctx, st, nil, normal, rng, pc, true)
	if ok && len(held) > 0 {
		if cfg.HoldFor > 0 {
			select {
			case <-time.After(cfg.HoldFor):
			case <-ctx.Done():
			}
			conn, ok = r.sendEntries(ctx, st, conn, held, rng, pc, false)
		} else {
			r.m.ChaosHeld.Add(int64(len(held)))
			ssp = ssp.WithAttr("held", int64(len(held)))
		}
	}
	if !ok {
		ssp.WithStr("result", "aborted").End()
		return
	}
	if cfg.Wait {
		if conn == nil {
			conn, _ = collect.DialRaw(cfg.Addr, r.ioTimeout())
		}
		if conn != nil {
			r.waitRun(conn, st.runID)
		}
	}
	if conn != nil {
		conn.Close()
	}
	ssp.End()
}

// sendEntries ships entries in order over conn (dialing when nil),
// returning the live connection for reuse (nil if every pair was
// dropped before a dial happened) and whether the stream survived —
// false means it aborted on a NACK, an AckError, or exhausted
// transport retries. chaos gates drop/dup/reorder: the held-rank flush
// at the end of a stream replays clean so a HoldFor test
// deterministically completes its run.
func (r *Runner) sendEntries(ctx context.Context, st *stream, conn *collect.RawConn, entries []*framelog.Entry, rng *rand.Rand, pc *pacer, chaos bool) (*collect.RawConn, bool) {
	cfg := &r.cfg
	var rekeyBuf []byte
	var prevSendNs int64
	abort := func() (*collect.RawConn, bool) {
		if conn != nil {
			conn.Close()
		}
		return nil, false
	}
	for i := 0; i < len(entries); i++ {
		if ctx.Err() != nil {
			return abort()
		}
		e := entries[i]
		// Reorder: swap this pair with its successor (send i+1 now, the
		// current one on the next iteration).
		if chaos && cfg.Reorder > 0 && i+1 < len(entries) && rng.Float64() < cfg.Reorder {
			entries[i], entries[i+1] = entries[i+1], entries[i]
			e = entries[i]
			r.m.ChaosReordered.Inc()
		}
		// Pacing: open-loop slot, or recorded gap ÷ speedup. The recorded
		// clock is the producer's hello send timestamp; captures from v1
		// producers (SendNs 0) replay back to back.
		var delay time.Duration
		if pc != nil {
			pc.wait(ctx)
		} else {
			if prevSendNs > 0 && e.Hello.SendNs > prevSendNs {
				delay = time.Duration(float64(e.Hello.SendNs-prevSendNs) / cfg.Speedup)
			}
			if e.Hello.SendNs > 0 {
				prevSendNs = e.Hello.SendNs
			}
		}
		// One variate per pair, used or not: how many a stream draws must
		// not depend on the capture's send times, or the seed stops
		// deciding which pairs the later draws drop and duplicate.
		if chaos && cfg.Jitter > 0 {
			delay = time.Duration(float64(delay) * (1 + cfg.Jitter*(2*rng.Float64()-1)))
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return abort()
			}
		}
		if chaos && cfg.Drop > 0 && rng.Float64() < cfg.Drop {
			r.m.ChaosDropped.Inc()
			continue
		}
		hello := e.HelloRaw
		if st.rekey {
			var err error
			rekeyBuf, err = wire.RekeyHelloFrame(rekeyBuf[:0], e.HelloRaw, st.runID)
			if err != nil {
				// A journal entry that read back with a valid CRC cannot fail
				// the re-key; treat it as a broken capture and abort.
				r.logf("stream %s: rekey: %v", st.runID, err)
				r.failedStreams.Add(1)
				r.m.SendErrs.Inc()
				return abort()
			}
			hello = rekeyBuf
		}
		sends := 1
		if chaos && cfg.Dup > 0 && rng.Float64() < cfg.Dup {
			sends = 2
			r.m.ChaosDuped.Inc()
		}
		for s := 0; s < sends; s++ {
			var ok bool
			conn, ok = r.sendPair(ctx, st, conn, hello, e.SnapRaw)
			if !ok {
				return nil, false
			}
		}
	}
	return conn, true
}

// sendPair ships one pair with bounded reconnect retries. Returns the
// (possibly re-dialed) connection and false when the stream must abort
// — an admission NACK, an AckError, or exhausted transport retries.
func (r *Runner) sendPair(ctx context.Context, st *stream, conn *collect.RawConn, hello, snap []byte) (*collect.RawConn, bool) {
	const attempts = 3
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if ctx.Err() != nil {
			if conn != nil {
				conn.Close()
			}
			return nil, false
		}
		if conn == nil {
			c, err := collect.DialRaw(r.cfg.Addr, r.ioTimeout())
			if err != nil {
				lastErr = err
				time.Sleep(time.Duration(a) * 50 * time.Millisecond)
				continue
			}
			conn = c
		}
		t0 := time.Now()
		ack, nack, err := conn.SendPair(hello, snap)
		if err != nil {
			// Transport trouble: the connection is suspect, re-dial and
			// re-send the same pair — ingest dedupes on (run, rank, epoch).
			conn.Close()
			conn = nil
			lastErr = err
			continue
		}
		r.m.PairsSent.Inc()
		r.m.BytesSent.Add(int64(len(hello) + len(snap)))
		r.m.AckLatency.Observe(time.Since(t0).Nanoseconds())
		if nack != nil {
			// Admission said no; the answer is permanent for this stream.
			r.m.Nacks.Inc()
			r.nackedStreams.Add(1)
			r.obs.Start("loadgen", "loadgen.nack").WithRun(st.runID, -1, st.cap.man.Epoch).
				WithStr("code", wire.NackCodeString(nack.Code)).Emit()
			conn.Close()
			return nil, false
		}
		switch ack.Status {
		case wire.AckOK:
			r.m.Acks.Inc()
		case wire.AckDuplicate:
			r.m.AckDups.Inc()
		default:
			r.m.AckErrs.Inc()
			r.logf("stream %s: collector rejected pair: %s", st.runID, ack.Detail)
			conn.Close()
			r.failedStreams.Add(1)
			return nil, false
		}
		return conn, true
	}
	r.m.SendErrs.Inc()
	r.failedStreams.Add(1)
	r.logf("stream %s: %d transport attempts exhausted: %v", st.runID, attempts, lastErr)
	return nil, false
}

// waitRun blocks for the stream's finalized trace on the live
// connection — the closed-loop completion check.
func (r *Runner) waitRun(conn *collect.RawConn, runID string) {
	data, err := conn.WaitTrace(runID)
	if err != nil {
		r.logf("stream %s: wait: %v", runID, err)
		return
	}
	r.m.WaitedRuns.Inc()
	r.m.TraceBytes.Add(int64(len(data)))
}

// report assembles the campaign report from the metric counters.
func (r *Runner) report(elapsed time.Duration) *Report {
	rep := &Report{
		Journals: len(r.cfg.Journals),
		Streams:  len(r.streams),
		Amplify:  r.cfg.Amplify,

		PairsPlanned: r.planned,
		PairsSent:    r.m.PairsSent.Load(),
		BytesSent:    r.m.BytesSent.Load(),

		Acks:     r.m.Acks.Load(),
		AckDups:  r.m.AckDups.Load(),
		AckErrs:  r.m.AckErrs.Load(),
		Nacks:    r.m.Nacks.Load(),
		SendErrs: r.m.SendErrs.Load(),

		Dropped:   r.m.ChaosDropped.Load(),
		Duped:     r.m.ChaosDuped.Load(),
		Reordered: r.m.ChaosReordered.Load(),
		Held:      r.m.ChaosHeld.Load(),

		NackedStreams: int(r.nackedStreams.Load()),
		FailedStreams: int(r.failedStreams.Load()),

		ElapsedSec: elapsed.Seconds(),

		WaitedRuns: r.m.WaitedRuns.Load(),
		TraceBytes: r.m.TraceBytes.Load(),
	}
	if elapsed > 0 {
		rep.AchievedRatePps = float64(rep.Acks+rep.AckDups) / elapsed.Seconds()
	}
	rep.OfferedRatePps = r.offeredRate(rep, elapsed)
	lat := r.m.AckLatency.Snapshot()
	rep.AckLatencyP50Ms = lat.Quantile(0.50) / 1e6
	rep.AckLatencyP95Ms = lat.Quantile(0.95) / 1e6
	rep.AckLatencyP99Ms = lat.Quantile(0.99) / 1e6
	return rep
}

// offeredRate is what the campaign tried to inject per second: the
// configured open-loop rate, or for closed-loop pacing the planned
// pairs over the capture's recorded span divided by Speedup.
func (r *Runner) offeredRate(rep *Report, elapsed time.Duration) float64 {
	if r.cfg.Rate > 0 {
		return r.cfg.Rate
	}
	var spanNs int64
	for _, st := range r.streams {
		es := st.cap.entries
		first, last := es[0].Hello.SendNs, es[len(es)-1].Hello.SendNs
		if first > 0 && last > first && last-first > spanNs {
			spanNs = last - first
		}
	}
	if spanNs == 0 {
		// No recorded clock (v1 capture): back-to-back replay offers
		// whatever the wire achieved.
		return rep.AchievedRatePps
	}
	return float64(rep.PairsPlanned) / (float64(spanNs) / r.cfg.Speedup / 1e9)
}
