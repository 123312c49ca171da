package collect

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// The collector's crash-recovery layer: every accepted snapshot frame
// is appended to a per-run frame-pair log (internal/framelog) under
// OutDir/journal/<run>/, and a restarted daemon replays intact frames
// through the normal idempotent ingest path before accepting new
// connections. The log reuses the CRC32C wire framing verbatim — one
// (Hello, Snapshot) frame pair per accepted snapshot — so replay is
// literally the ingest loop pointed at a file, torn tails are detected
// by the same checksum that guards the network, and the file doubles as
// the payload spill of a bounded-memory run and as a recording
// pilgrim-loadgen replays.

// SyncMode is the journal's fsync policy. Under every mode the journal
// is a group commit: an accepted frame pair joins the pending buffer,
// and one queued drain writes everything pending with one write(2).
type SyncMode string

const (
	// SyncAlways fsyncs once per drain, and each snapshot's ack waits
	// for the fsync of the group its pair was written in: the ack is
	// the durability receipt.
	SyncAlways SyncMode = "always"
	// SyncBatch (the default) fsyncs at most once per
	// batchSyncInterval. The ack leaves once the pair is pending, before
	// its write(2): a daemon crash loses the acked pairs not yet
	// written (the pending buffer and the one being written, each at
	// most framelog.DefaultRunCap bytes and one pair), and a machine
	// crash also the last interval's unsynced writes.
	SyncBatch SyncMode = "batch"
	// SyncOff never fsyncs. The ack leaves as under SyncBatch; what a
	// machine crash keeps is whatever the OS wrote back.
	SyncOff SyncMode = "off"
)

// batchSyncInterval is SyncBatch's maximum fsync latency.
const batchSyncInterval = 100 * time.Millisecond

// ParseSyncMode validates a -journal-sync flag value ("" = batch).
func ParseSyncMode(s string) (SyncMode, error) {
	switch SyncMode(s) {
	case "":
		return SyncBatch, nil
	case SyncAlways, SyncBatch, SyncOff:
		return SyncMode(s), nil
	default:
		return "", fmt.Errorf("collect: unknown journal sync mode %q (want always, batch, or off)", s)
	}
}

// journal is one run's durable frame log. All file I/O happens on a
// dedicated par.Queue worker, never under the server or run locks.
// Appends join a pending buffer under the run lock, so file order is
// append order, and at most one drain of that buffer is queued at a
// time; the queue's FIFO order puts every other task (the finalize
// commit, a read-back's barrier) after the drain of what was appended
// before it.
type journal struct {
	dir     framelog.Dir
	mode    SyncMode
	man     framelog.Manifest
	m       *Metrics
	obs     *obs.Sink
	logf    func(format string, args ...any)
	q       *par.Queue
	lagWarn time.Duration // warn when fsync lag exceeds this; <=0 disables
	keep    bool          // capture mode: retain frames.jnl after finalize

	// nextOff is the file offset the next appended entry will land at.
	// It is caller-synchronized, not atomic: every appendSnapshot for a
	// journal runs under its run's r.mu. Recovery primes it to the
	// replayed file's intact length before reattaching.
	nextOff int64

	// The group commit, under mu: appendSnapshot adds to pend, and the
	// drain takes all of it. queued is set while a drain is queued that
	// has not taken pend yet, so pend is non-empty only then; room wakes
	// an append that found framelog.DefaultRunCap bytes pending. group
	// (SyncAlways) is closed once pend's drain has fsynced. spare is the
	// last drained buffer, which the next drain hands back to pend.
	mu         sync.Mutex
	room       sync.Cond
	pend       []byte
	pendFrames int
	spare      []byte
	queued     bool
	group      chan struct{}

	// Queue-goroutine-owned state.
	f     framelog.File // frames.jnl, appended to
	dirty bool

	// Cross-goroutine observability (admin recovery view).
	frames   atomic.Int64
	bytes    atomic.Int64
	broken   atomic.Bool
	flushArm atomic.Bool

	// oldestDirty is the UnixNano timestamp of the first append since
	// the last fsync (0 = clean); health reads it cross-goroutine.
	oldestDirty atomic.Int64
	lastLagWarn atomic.Int64
}

// newJournal builds the run's journal and enqueues its open: create
// the log (fresh runs truncate so an epoch restart of a reused run ID
// cannot replay stale frames) and persist the manifest. No I/O happens
// on the caller's goroutine.
func newJournal(dir framelog.Dir, mode SyncMode, man framelog.Manifest, m *Metrics, sink *obs.Sink, logf func(string, ...any), fresh bool, lagWarn time.Duration, keep bool) *journal {
	j := &journal{dir: dir, mode: mode, man: man, m: m, obs: sink, logf: logf, q: par.NewQueue(64), lagWarn: lagWarn, keep: keep}
	j.room.L = &j.mu
	j.q.Do(func() {
		f, err := j.dir.Create(fresh)
		if err != nil {
			j.fail("open journal", err)
			return
		}
		j.f = f
		if fresh {
			j.writeManifestNow()
		}
	})
	return j
}

func (j *journal) fail(what string, err error) {
	if j.broken.CompareAndSwap(false, true) {
		j.m.JournalErrors.Inc()
		j.logf("run %s: journal %s: %v (run continues memory-only)", j.man.RunID, what, err)
	}
}

// writeManifestNow persists the manifest atomically, fsynced unless
// the sync mode is off. Queue goroutine only.
func (j *journal) writeManifestNow() {
	if err := j.dir.WriteManifest(&j.man, j.mode != SyncOff); err != nil {
		j.fail("write manifest", err)
	}
}

// appendSnapshot adds one accepted snapshot's (Hello, Snapshot) frame
// pair to the pending buffer, copying both, so the caller's scratch
// body can be reused immediately, and queues a drain unless one is
// queued already. An append that finds framelog.DefaultRunCap bytes
// pending first waits for the drain to take them. The returned ref
// locates the entry in frames.jnl — valid because appends are
// caller-ordered under r.mu — letting the bounded-memory ingest path
// treat the journal as its payload spill. The returned wait function is
// non-nil only under SyncAlways: the caller must invoke it (outside any
// lock) before acking, and it blocks until the entry is fsynced.
func (j *journal) appendSnapshot(h *wire.Hello, body []byte) (ref framelog.Ref, wait func()) {
	j.mu.Lock()
	for j.queued && len(j.pend) >= framelog.DefaultRunCap {
		j.room.Wait()
	}
	n := len(j.pend)
	j.pend = framelog.AppendPair(j.pend, h, body)
	j.pendFrames++
	ref = framelog.Ref{Off: j.nextOff, Len: int64(len(j.pend) - n)}
	j.nextOff += ref.Len
	if j.mode == SyncAlways && j.group == nil {
		j.group = make(chan struct{})
	}
	g, enqueue := j.group, !j.queued
	j.queued = true
	j.mu.Unlock()
	// Enqueued off j.mu, which the drain takes, and still under r.mu:
	// a task queued after this append (a barrier, the finalize commit)
	// runs after this drain.
	if enqueue && !j.q.Do(j.drain) {
		// Closed: nothing will write the pairs.
		if _, _, g := j.take(); g != nil {
			close(g)
		}
		return ref, nil
	}
	if g == nil {
		return ref, nil
	}
	return ref, func() { <-g }
}

// take empties the pending buffer, releasing appends waiting for room
// and returning what was pending; the caller must close group once the
// pairs are durable (or dropped).
func (j *journal) take() (buf []byte, frames int, group chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	buf, frames, group = j.pend, j.pendFrames, j.group
	j.pend, j.pendFrames, j.group, j.queued = j.spare[:0], 0, nil, false
	j.spare = nil
	j.room.Broadcast()
	return buf, frames, group
}

// drain writes everything pending with one write(2), fsyncing under
// SyncAlways before it releases the group's acks. Queue goroutine only.
func (j *journal) drain() {
	buf, frames, group := j.take()
	j.write(buf, frames)
	if group != nil {
		close(group)
	}
	if cap(buf) <= 2*framelog.DefaultRunCap { // a huge pair's buffer is not kept
		j.mu.Lock()
		j.spare = buf[:0]
		j.mu.Unlock()
	}
}

// write appends frames pairs, buf, to frames.jnl under one
// journal.append span. Queue goroutine only.
func (j *journal) write(buf []byte, frames int) {
	if len(buf) == 0 || j.f == nil || j.broken.Load() {
		return
	}
	asp := j.obs.Start("journal", "journal.append").WithRun(j.man.RunID, -1, j.man.Epoch).
		WithAttr("bytes", int64(len(buf))).WithAttr("frames", int64(frames))
	if _, err := j.f.Write(buf); err != nil {
		j.fail("append", err)
		asp.WithStr("result", "error").End()
		return
	}
	asp.End()
	j.oldestDirty.CompareAndSwap(0, time.Now().UnixNano())
	j.frames.Add(int64(frames))
	j.bytes.Add(int64(len(buf)))
	j.m.JournalFrames.Add(int64(frames))
	j.m.JournalBytes.Add(int64(len(buf)))
	switch j.mode {
	case SyncAlways:
		j.fsyncNow()
	case SyncBatch:
		j.dirty = true
		j.armFlush()
	}
}

// fsyncNow flushes the frames file. Queue goroutine only.
func (j *journal) fsyncNow() {
	if j.f == nil {
		return
	}
	ssp := j.obs.Start("journal", "journal.fsync").WithRun(j.man.RunID, -1, j.man.Epoch)
	if err := j.f.Sync(); err != nil {
		j.fail("fsync", err)
		ssp.WithStr("result", "error").End()
		return
	}
	ssp.End()
	j.dirty = false
	j.m.JournalFsyncs.Inc()
	if oldest := j.oldestDirty.Swap(0); oldest != 0 {
		lag := time.Now().UnixNano() - oldest
		if lag < 0 {
			lag = 0
		}
		j.m.JournalFsyncLag.Observe(lag)
		j.maybeWarnLag(lag)
	}
}

// lagWarnInterval spaces journal-lag warnings: one line per journal
// per interval no matter how many slow fsyncs land.
const lagWarnInterval = 30 * time.Second

func (j *journal) maybeWarnLag(lagNs int64) {
	if j.lagWarn <= 0 || time.Duration(lagNs) <= j.lagWarn {
		return
	}
	now := time.Now().UnixNano()
	last := j.lastLagWarn.Load()
	if now-last < int64(lagWarnInterval) || !j.lastLagWarn.CompareAndSwap(last, now) {
		return
	}
	j.logf("run %s: journal fsync lag %s exceeds -journal-lag-warn=%s (disk keeping up?)",
		j.man.RunID, time.Duration(lagNs), j.lagWarn)
}

// fsyncLag reports how long the oldest unsynced byte has been waiting
// (0 when clean). Safe from any goroutine; health reads it live.
func (j *journal) fsyncLag(nowNs int64) int64 {
	oldest := j.oldestDirty.Load()
	if oldest == 0 {
		return 0
	}
	if lag := nowNs - oldest; lag > 0 {
		return lag
	}
	return 0
}

// armFlush schedules one batched fsync if none is pending.
func (j *journal) armFlush() {
	if j.flushArm.CompareAndSwap(false, true) {
		time.AfterFunc(batchSyncInterval, func() {
			j.q.Do(func() {
				j.flushArm.Store(false)
				if j.dirty {
					j.fsyncNow()
				}
			})
		})
	}
}

// finalizeRun commits the finalized run, ordered after every pending
// append by the queue. trace, when non-nil, is the trace file under
// OutDir, already written and served to waiters: it is fsynced (unless
// the sync mode is off) and closed first. Then the manifest records
// the terminal state — the commit point — and the frames file is
// dropped: the trace is the run's durable artifact now, and a restart
// re-registers the run from the manifest alone. A trace that cannot be
// made durable commits nothing: the manifest stays collecting and the
// frames stay, so a restart replays them to the same trace. Capture
// mode (KeepJournalFrames) keeps the frames, fsyncing them instead so
// the retained recording is complete.
func (j *journal) finalizeRun(state, reason string, trace framelog.File) {
	ok := j.q.Do(func() {
		j.mu.Lock()
		j.spare = nil
		j.mu.Unlock()
		commit := trace == nil || j.syncTrace(trace)
		if commit {
			j.man.State = state
			j.man.Reason = reason
			j.writeManifestNow()
		}
		if j.f != nil {
			if (j.keep || !commit) && j.dirty && j.mode != SyncOff {
				j.fsyncNow()
			}
			j.f.Close()
			j.f = nil
		}
		if j.keep || !commit {
			return
		}
		if err := j.dir.RemoveFrames(); err != nil {
			j.fail("remove frames", err)
		}
	})
	if !ok && trace != nil {
		trace.Close()
	}
	// Drain and stop the worker off the finalize path; appends cannot
	// arrive after finalize (ingest rejects non-collecting runs).
	go j.q.Close()
}

// syncTrace fsyncs (unless the sync mode is off) and closes the run's
// trace file, reporting whether it is as durable as the mode asks.
// Queue goroutine only.
func (j *journal) syncTrace(f framelog.File) bool {
	var err error
	if j.mode != SyncOff {
		sp := j.obs.Start("journal", "journal.fsync").WithRun(j.man.RunID, -1, j.man.Epoch).WithStr("file", "trace")
		if err = f.Sync(); err != nil {
			sp = sp.WithStr("result", "error")
		}
		sp.End()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		j.m.JournalErrors.Inc()
		j.logf("run %s: trace fsync: %v (manifest left collecting; a restart replays the frames)", j.man.RunID, err)
		return false
	}
	return true
}

// close flushes and closes the journal gracefully (daemon shutdown:
// the run is still collecting, so the frames must survive for the
// restarted daemon to replay).
func (j *journal) close() {
	j.q.Do(func() {
		if j.f != nil {
			if j.dirty && j.mode != SyncOff {
				j.fsyncNow()
			}
			j.f.Close()
			j.f = nil
		}
	})
	j.q.Close()
}

// crash severs the journal the way SIGKILL would: pending queue writes
// drain (a real kill loses them; their snapshots were never acked
// under SyncAlways, so producers re-send either way), but nothing is
// fsynced and the manifest is left untouched. Test hook.
func (j *journal) crash() {
	j.q.Close()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// status snapshots the journal counters for the admin recovery view.
func (j *journal) status() (frames, bytes int64, broken bool) {
	return j.frames.Load(), j.bytes.Load(), j.broken.Load()
}

// --- recovery ----------------------------------------------------------------

// RecoveryStatus is the admin view of one run's crash-recovery state
// and journal health (GET /runs/{id}/recovery).
type RecoveryStatus struct {
	Recovered      bool    `json:"recovered"`       // run was restored on startup
	FromManifest   bool    `json:"from_manifest"`   // restored as already-finalized (no replay)
	ReplayedFrames int     `json:"replayed_frames"` // snapshot frames replayed through ingest
	ReplayedBytes  int64   `json:"replayed_bytes"`
	TornTail       bool    `json:"torn_tail"` // journal ended in a torn/corrupt frame
	TruncatedBytes int64   `json:"truncated_bytes"`
	JournalPath    string  `json:"journal_path,omitempty"`
	JournalSync    string  `json:"journal_sync,omitempty"`
	JournalFrames  int64   `json:"journal_frames"`
	JournalBytes   int64   `json:"journal_bytes"`
	JournalBroken  bool    `json:"journal_broken,omitempty"`
	DeadlineSec    float64 `json:"straggler_deadline_restored_sec,omitempty"`
}

// recoverJournals scans OutDir/journal on startup and restores every
// run it can: finalized runs re-register from their manifest (serving
// the on-disk trace), collecting runs get a walker and replay their
// frame log through the idempotent ingest path, before the listener
// accepts, so a reconnecting producer never races its own replay.
func (s *Server) recoverJournals() {
	root := framelog.Root(s.cfg.OutDir)
	entries, err := os.ReadDir(root)
	if err != nil {
		return // no journal dir: fresh OutDir
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		s.recoverRun(filepath.Join(root, e.Name()))
	}
}

// recoverRun restores one journal directory. Any malformed state is
// logged and skipped — recovery must never prevent startup.
func (s *Server) recoverRun(jdir string) {
	jr, err := s.journalDir(jdir).Open()
	if err != nil {
		s.logf("recover %s: %v (skipped)", jdir, err)
		return
	}
	defer jr.Close()
	m := jr.Manifest()
	if filepath.Base(jdir) != m.RunID {
		s.logf("recover %s: manifest names run %q (skipped)", jdir, m.RunID)
		return
	}
	if m.State != "collecting" {
		s.recoverFinalized(&m, jr)
		return
	}
	s.replayRun(&m, jr)
}

// recoverFinalized re-registers a completed run from its manifest so
// late waiters, duplicate re-sends, and admin fetches behave exactly
// as they would had the daemon not restarted. The trace itself is
// served from the OutDir file.
func (s *Server) recoverFinalized(m *framelog.Manifest, jr *framelog.Reader) {
	tracePath := filepath.Join(s.cfg.OutDir, m.RunID+".pilgrim")
	fi, err := os.Stat(tracePath)
	if err != nil {
		// Manifest says done but the trace is gone; if frames survived
		// (crash between trace write and frame removal), replay rebuilds
		// the identical trace. Otherwise there is nothing to restore.
		if jr.HasFrames() {
			m.State = "collecting"
			s.replayRun(m, jr)
		} else {
			s.logf("recover run %s: %s but trace and frames both missing (skipped)", m.RunID, m.State)
		}
		return
	}
	r := s.registerRecovered(m)
	r.mu.Lock()
	r.tracePath = tracePath
	r.traceLen = int(fi.Size())
	r.doneAt = time.Now()
	r.reason = m.Reason
	switch m.State {
	case "salvaged":
		s.enterPhaseLocked(r, phaseSalvaged)
	case "failed":
		s.enterPhaseLocked(r, phaseFailed)
	default:
		s.enterPhaseLocked(r, phaseFinalized)
	}
	r.recovery = &RecoveryStatus{
		Recovered:    true,
		FromManifest: true,
		JournalPath:  jr.Dir().Path,
		JournalSync:  string(s.cfg.JournalSync),
	}
	close(r.done)
	r.mu.Unlock()
	s.m.RecoveredRuns.Inc()
	s.obs.Start("recover", "recover.manifest").WithRun(m.RunID, -1, m.Epoch).
		WithAttr("trace_bytes", fi.Size()).WithStr("state", m.State).Emit()
	s.logf("run %s: recovered as %s (trace %d bytes on disk)", m.RunID, m.State, fi.Size())
}

// registerRecovered creates the registry entry for a recovered run
// without admission checks — it was admitted before the crash — and
// starts a collecting run's walker, as runFor does a live run's.
func (s *Server) registerRecovered(m *framelog.Manifest) *run {
	r := newRun(m.RunID, m.World, m.Epoch, m.TimingMode, m.TimingBase)
	r.opts.ObsSink = s.obs
	r.opts.MaxResidentSnapshots = s.cfg.MaxResidentSnapshots
	r.created = time.Unix(0, int64(m.CreatedSec*1e9))
	s.mu.Lock()
	s.runs[m.RunID] = r
	if m.State == "collecting" {
		s.wg.Add(1)
		go s.walkRun(r)
	}
	s.mu.Unlock()
	s.m.RunPhase.With(phaseAdmitted.String()).Add(1)
	return r
}

// replayRun replays a collecting run's frame log through the normal
// ingest path. The reader ends the log at the first CRC failure,
// truncated read, or frame that does not belong to this run, and the
// file is truncated there — a torn tail is expected after a crash and
// must never fail the whole run.
func (s *Server) replayRun(m *framelog.Manifest, jr *framelog.Reader) {
	pairs := jr.ReadAll() // a torn tail ends the read; Torn reports it
	torn, cut := jr.Torn()
	goodOff := jr.Intact()
	if cut > 0 {
		if err := jr.Repair(); err != nil {
			s.logf("recover run %s: %v", m.RunID, err)
		}
		s.m.JournalTornTails.Inc()
	}

	// Register the run, restore its straggler deadline from the
	// manifest's creation time (clamped so reconnecting producers get a
	// post-restart grace window), and reattach the journal in append
	// mode with its counters primed to what the file holds.
	rsp := s.obs.Start("recover", "recover.replay").WithRun(m.RunID, -1, m.Epoch).
		WithAttr("frames", int64(len(pairs))).WithAttr("bytes", goodOff)
	if torn {
		rsp = rsp.WithStr("torn", "true")
	}
	r := s.registerRecovered(m)
	rec := &RecoveryStatus{
		Recovered:      true,
		ReplayedFrames: len(pairs),
		ReplayedBytes:  goodOff,
		TornTail:       torn,
		TruncatedBytes: cut,
		JournalPath:    jr.Dir().Path,
		JournalSync:    string(s.cfg.JournalSync),
	}
	r.mu.Lock()
	if d := s.cfg.StragglerDeadline; d > 0 {
		remaining := d - time.Since(r.created)
		if min := 2 * time.Second; remaining < min {
			remaining = min
		}
		if remaining > d {
			remaining = d
		}
		r.timer = time.AfterFunc(remaining, func() { s.salvageRun(r, d) })
		rec.DeadlineSec = remaining.Seconds()
	}
	r.recovery = rec
	r.journal = newJournal(jr.Dir(), s.cfg.JournalSync, *m, s.m, s.obs, s.logf, false, s.cfg.JournalLagWarn, s.cfg.KeepJournalFrames)
	r.journal.frames.Store(int64(len(pairs)))
	r.journal.bytes.Store(goodOff)
	r.journal.nextOff = goodOff
	r.mu.Unlock()
	s.collecting.Add(1)
	s.m.ActiveRuns.Add(1)
	s.m.RecoveredRuns.Inc()

	for _, p := range pairs {
		ack, _ := s.ingest(p.Hello, p.Body, nil, true, p.Ref())
		if ack != nil && ack.Status == wire.AckOK {
			s.m.JournalReplayedFrames.Inc()
		}
	}
	rsp.WithAttr("ranks", int64(r.receivedNow())).End()
	s.logf("run %s: recovered (%d frames replayed, torn=%v, %d/%d ranks)",
		m.RunID, len(pairs), torn, r.receivedNow(), m.World)
}

// journalDir is the run log directory path on the collector's file
// system.
func (s *Server) journalDir(path string) framelog.Dir { return framelog.Dir{FS: s.fs, Path: path} }
