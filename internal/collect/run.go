package collect

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// The run lifecycle: a run collects snapshots, and its walker — one
// goroutine per collecting run, started with the run — advances one
// finalize walk (core.Walk) over the contiguous prefix of ranks that
// have arrived. Ingest and the straggler deadline's salvage only extend
// that prefix and wake the walker; the walker's batch that ends at the
// last rank finalizes the run. Connection handling and ingest live in
// server.go, and the run's phase (its one state machine) in health.go.

// run is one trace collection in flight: the per-rank snapshots
// received so far and the finalize walk over their arrived prefix.
type run struct {
	id      string
	world   int
	epoch   uint64
	opts    core.Options
	created time.Time

	mu       sync.Mutex
	snaps    []*core.Snapshot // by rank; nil until reported; only Rank and Calls once walked
	received int
	bytes    int64    // snapshot body bytes accepted (admission accounting)
	sums     cst.Sums // the accepted tables' calls and durations, in total

	// The walk over the arrived prefix: ranks [0, walked) are in walk,
	// and ranks [walked, arrived) have all arrived (arriveLocked). Only
	// the run's walker (walkRun) touches walk, setting it under mu; wake
	// (on mu) is how arrivals and shutdown reach the walker. walk is nil
	// before the first batch and once the run is done.
	walk    *core.Walk
	walked  int
	arrived int
	wake    sync.Cond
	spilled int            // unwalked snapshots whose payloads live only in the journal
	jrefs   []framelog.Ref // rank -> journal entry; nil until first spill
	// pendingInfo carries salvage metadata from salvageRun to the walker,
	// which finalizes the run once it walks the last rank.
	pendingInfo *trace.SalvageInfo
	timer       *time.Timer
	evict       *time.Timer // retention: drops traceData once on disk
	reason      string      // why the run salvaged or failed, "" otherwise
	traceData   []byte      // nil after eviction; reload via tracePath
	traceLen    int
	tracePath   string
	doneAt      time.Time
	done        chan struct{}   // closed once the run finalizes
	journal     *journal        // nil when OutDir is unset
	recovery    *RecoveryStatus // non-nil when restored from a journal

	// Live health model (health.go). phase's zero value is
	// phaseAdmitted, matching a freshly created run.
	phase         runPhase
	lastArrival   time.Time
	ewmaBps       float64     // EWMA ingest rate, bytes/sec
	idle          *time.Timer // flips ingesting → awaiting-stragglers
	clock         clockEstimator
	lastHealthPub time.Time // rate limit for watch health-delta events
}

// newRun builds a run's in-memory state; shared by live creation
// (runFor) and journal recovery (registerRecovered).
func newRun(id string, world int, epoch uint64, timingMode uint8, timingBase float64) *run {
	r := &run{
		id:      id,
		world:   world,
		epoch:   epoch,
		opts:    core.Options{TimingMode: timingMode, TimingBase: timingBase},
		created: time.Now(),
		snaps:   make([]*core.Snapshot, world),
		done:    make(chan struct{}),
	}
	r.wake.L = &r.mu
	return r
}

// receivedNow reads the rank count without holding the lock long.
func (r *run) receivedNow() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.received
}

// traceLocked returns the run's trace bytes (r.mu held), reloading
// the on-disk copy when the in-memory one was evicted by retention.
func (r *run) traceLocked() []byte {
	if r.traceData != nil || r.tracePath == "" {
		return r.traceData
	}
	data, err := os.ReadFile(r.tracePath)
	if err != nil {
		return nil
	}
	return data
}

// backlogLocked counts the ranks received (salvage placeholders
// included) but not yet walked; 0 once the run is done.
func (r *run) backlogLocked() int {
	if r.phase.terminal() {
		return 0
	}
	n := r.received - r.walked
	if r.pendingInfo != nil {
		n += len(r.pendingInfo.FailedRanks)
	}
	return n
}

// release drops a snapshot's payloads, keeping what the run's status
// and salvage info read.
func release(s *core.Snapshot) { *s = core.Snapshot{Rank: s.Rank, Calls: s.Calls} }

// --- the walk over the arrived prefix ----------------------------------------

// dueLocked (r.mu held) is the walker's next batch: Options.BatchSize
// ranks from the walked prefix on, or the rest of the world, and
// whether every one of them has arrived.
func (r *run) dueLocked() (n int, ready bool) {
	n = min(r.opts.BatchSize(r.world), r.world-r.walked)
	return n, r.arrived-r.walked >= n
}

// arriveLocked (r.mu held) extends the run's arrived prefix and wakes
// the walker once the batch it waits for has all arrived.
func (r *run) arriveLocked() {
	for r.arrived < r.world && r.snaps[r.arrived] != nil {
		r.arrived++
	}
	if _, ready := r.dueLocked(); ready {
		r.wake.Signal()
	}
}

// walkRun is the run's walker: started with the run, it is the one
// goroutine that touches the run's walk. It waits for the next batch of
// the arrived prefix, reads the batch under r.mu and walks it off the
// lock. The batch that ends at rank world−1 finalizes the run; a batch
// that fails (a spilled payload the journal cannot give back)
// finalizes it with no trace. Once the server is closing it stops the
// walk and leaves the run unfinalized, matching Close's contract.
func (s *Server) walkRun(r *run) {
	defer s.wg.Done()
	r.mu.Lock()
	defer r.mu.Unlock()
	for !s.closing.Load() {
		n, ready := r.dueLocked()
		if !ready {
			r.wake.Wait()
			continue
		}
		if r.walk == nil {
			// Built at the first batch, not the hello: NewWalk presizes by
			// world, and a hello may claim up to wire.MaxWorldSize ranks.
			r.walk = core.NewWalk(r.world, nil, 0, r.opts)
		}
		start := r.walked
		snaps := slices.Clone(r.snaps[start : start+n])
		var refs []framelog.Ref
		if r.jrefs != nil {
			refs = r.jrefs[start : start+n]
		}
		w, j := r.walk, r.journal
		r.mu.Unlock()
		err := s.step(r, w, j, start, snaps, refs)
		r.mu.Lock()
		if s.closing.Load() {
			break
		}
		if err != nil {
			s.logf("run %s: walk ranks [%d,%d): %v", r.id, start, start+n, err)
		} else {
			for i, sn := range r.snaps[start : start+n] {
				release(sn)
				if refs != nil && refs[i].Len != 0 {
					r.spilled--
				}
			}
			r.walked += n
			s.m.MergeBacklog.Add(-float64(n))
		}
		if err != nil || r.walked == r.world {
			// finalizeLocked's journal manifest update is enqueued after
			// every append (all were enqueued before their ranks could be
			// walked); queue order keeps the file consistent.
			s.finalizeLocked(r, r.pendingInfo, err)
			return
		}
	}
	if r.walk != nil {
		r.walk.Stop()
		r.walk = nil
	}
}

// step walks one batch: the ranks whose payloads were spilled are read
// back from the journal, tables included, and the batch goes into the
// walk under one ingest.walk span.
func (s *Server) step(r *run, w *core.Walk, j *journal, start int, snaps []*core.Snapshot, refs []framelog.Ref) error {
	sp := s.obs.Start("collect", "ingest.walk").WithRun(r.id, -1, r.epoch).
		WithAttr("start", int64(start)).WithAttr("ranks", int64(len(snaps)))
	t0 := time.Now()
	err := r.readBack(j, start, snaps, refs)
	if err == nil {
		err = w.Add(snaps)
	}
	if err != nil {
		sp.WithStr("result", "error").End()
		return err
	}
	s.m.MergeNs.Observe(time.Since(t0).Nanoseconds())
	sp.WithAttr("global_cst", int64(w.GlobalCST())).End()
	return nil
}

// readBack replaces each spilled snapshot of the batch at start with
// its journal entry. Every spilled ref points into frames.jnl: the
// journal queue is barriered so all appends are in the file (its
// worker never takes r.mu), and the entries are read through a private
// handle, as the append handle belongs to the queue worker. An identity
// mismatch is a bug, not a torn tail: refs cover only accepted appends.
func (r *run) readBack(j *journal, start int, snaps []*core.Snapshot, refs []framelog.Ref) error {
	if !slices.ContainsFunc(refs, func(ref framelog.Ref) bool { return ref.Len != 0 }) {
		return nil
	}
	j.q.Barrier()
	if j.broken.Load() {
		return fmt.Errorf("journal broken with payloads spilled to it")
	}
	f, err := j.dir.OpenFrames()
	if err != nil {
		return err
	}
	defer f.Close()
	fe := framelog.Fetcher{From: f, Run: r.id, Epoch: r.epoch}
	return fe.Fetch(start, refs, snaps)
}

// haltLocked (r.mu held, closing set) stops the run's timers and
// wakes its walker, which sees closing and stops the walk.
func (r *run) haltLocked() *journal {
	for _, t := range []*time.Timer{r.timer, r.evict, r.idle} {
		if t != nil {
			t.Stop()
		}
	}
	r.wake.Signal()
	return r.journal
}

// salvageRun fires at the straggler deadline: missing ranks become
// empty failed streams with empty tables, which arrive like any rank,
// and the walker finalizes the run as a salvage trace (pendingInfo)
// once it walks the last rank — the same degradation
// core.SalvageFinalize applies to crashed ranks.
func (s *Server) salvageRun(r *run, deadline time.Duration) {
	r.mu.Lock()
	if r.phase.terminal() || r.received == r.world {
		// Fully received: the walk finalizes normally.
		r.mu.Unlock()
		return
	}
	s.obs.Start("collect", "salvage").WithRun(r.id, -1, r.epoch).
		WithAttr("received", int64(r.received)).WithAttr("world", int64(r.world)).Emit()
	info := &trace.SalvageInfo{
		Reason: fmt.Sprintf("collector: straggler deadline (%s): %d/%d ranks reported", deadline, r.received, r.world),
		Calls:  make([]int64, r.world),
	}
	for rank := 0; rank < r.world; rank++ {
		if r.snaps[rank] != nil {
			info.Calls[rank] = r.snaps[rank].Calls
			continue
		}
		info.FailedRanks = append(info.FailedRanks, int32(rank))
		// Registering the placeholder under r.mu dedups a straggler that
		// arrives after this point: it acks as a duplicate, exactly as it
		// would after finalize.
		r.snaps[rank] = &core.Snapshot{
			Rank:    rank,
			Table:   cst.New(),
			Grammar: sequitur.Serialized(sequitur.New().Serialize()),
		}
	}
	r.pendingInfo = info
	s.m.MergeBacklog.Add(float64(len(info.FailedRanks)))
	r.arriveLocked()
	r.mu.Unlock()
}

// finalizeLocked (r.mu held, on the run's walker) ends the walk and
// publishes the trace: bytes for waiters, a file under OutDir. A
// non-nil werr is the batch failure that ended the walk early; the run then fails with no trace
// bytes, the same degradation as a serialize failure.
func (s *Server) finalizeLocked(r *run, info *trace.SalvageInfo, werr error) {
	if r.timer != nil {
		r.timer.Stop()
	}
	if r.idle != nil {
		r.idle.Stop()
	}
	s.enterPhaseLocked(r, phaseFinalizing)
	fsp := s.obs.Start("collect", "finalize.run").WithRun(r.id, -1, r.epoch).
		WithAttr("ranks", int64(r.world))
	t0 := time.Now()
	var file *trace.File
	if werr == nil {
		file, _, werr = r.walk.Finish(info)
	}
	r.walk.Stop()
	r.walk = nil
	// A done run keeps only each rank's Rank and Calls.
	s.m.MergeBacklog.Add(-float64(r.backlogLocked()))
	for _, sn := range r.snaps {
		if sn != nil {
			release(sn)
		}
	}
	r.spilled, r.jrefs = 0, nil
	end := phaseFinalized
	switch {
	case werr != nil:
		end, r.reason = phaseFailed, fmt.Sprintf("finalize walk failed: %v", werr)
	case info != nil:
		end, r.reason = phaseSalvaged, info.Reason
	}
	var buf bytes.Buffer
	if end != phaseFailed {
		if _, err := file.WriteTo(&buf); err != nil {
			// Serialization of a just-merged trace cannot fail short of OOM;
			// record the run as failed with no bytes rather than crash.
			buf.Reset()
			end, r.reason = phaseFailed, fmt.Sprintf("serialize failed: %v", err)
			s.logf("run %s: serialize failed: %v", r.id, err)
		}
	}
	switch end {
	case phaseFinalized:
		s.m.FinalizedRuns.Inc()
	case phaseSalvaged:
		s.m.SalvagedRuns.Inc()
	}
	r.traceData = buf.Bytes()
	r.traceLen = len(r.traceData)
	r.doneAt = time.Now()
	// The trace is written into the page cache and served before it is
	// durable: its fsync is queued on the journal ahead of the manifest
	// commit (finalizeRun), so waiters are not held for it, and a crash
	// before the commit replays the frames to the same bytes.
	var traceFile framelog.File
	if s.cfg.OutDir != "" {
		path := filepath.Join(s.cfg.OutDir, r.id+".pilgrim")
		f, err := s.writeTrace(path, r.traceData)
		if err != nil {
			s.logf("run %s: write %s: %v", r.id, path, err)
		} else {
			r.tracePath, traceFile = path, f
		}
	}
	// Retention: with the trace safely on disk, the in-memory copy is a
	// cache — drop it after a while so the registry never grows by the
	// full trace size per run for the daemon's lifetime.
	if r.tracePath != "" {
		retain := s.cfg.Retention
		if retain == 0 {
			retain = 10 * time.Minute
		}
		if retain > 0 {
			r.evict = time.AfterFunc(retain, func() { s.evictRun(r) })
		}
	}
	if r.journal != nil {
		r.journal.finalizeRun(end.state(), r.reason, traceFile)
	}
	s.collecting.Add(-1)
	s.m.ActiveRuns.Add(-1)
	s.m.TraceBytesOut.Add(int64(len(r.traceData)))
	s.m.FinalizeNs.Observe(time.Since(t0).Nanoseconds())
	s.enterPhaseLocked(r, end)
	fsp.WithAttr("trace_bytes", int64(len(r.traceData))).WithStr("state", end.state()).End()
	s.logf("run %s: %s (%d ranks, %d bytes)", r.id, end, r.world, len(r.traceData))
	close(r.done)
}

// writeTrace writes a run's trace to path on the collector's file
// system and returns the file still open, for the journal to fsync and
// close once waiters have it.
func (s *Server) writeTrace(path string, data []byte) (framelog.File, error) {
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// evictRun drops a finalized run's in-memory trace bytes; the on-disk
// copy under OutDir keeps serving waiters and admin fetches.
func (s *Server) evictRun(r *run) {
	r.mu.Lock()
	if r.phase.terminal() && r.tracePath != "" {
		r.traceData = nil
	}
	r.mu.Unlock()
}
