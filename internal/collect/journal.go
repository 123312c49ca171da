package collect

import (
	"fmt"
	"os"
	"path/filepath"
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

// SyncMode is the journal's fsync policy.
type SyncMode string

const (
	// SyncAlways fsyncs after every appended frame pair; the ack for a
	// snapshot is not sent until its journal entry is durable.
	SyncAlways SyncMode = "always"
	// SyncBatch (the default) fsyncs at most once per batchSyncInterval;
	// a crash of the whole machine can lose the last interval's frames
	// (a daemon crash alone loses nothing — the OS page cache survives).
	SyncBatch SyncMode = "batch"
	// SyncOff never fsyncs; durability is whatever the OS provides.
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
// dedicated par.Queue worker, never under the server or run locks; the
// queue's FIFO order preserves append order because entries are
// enqueued under the run lock.
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
	// journal runs under its run's r.mu, which is also what makes the
	// queue's FIFO order match append order. Recovery primes it to the
	// replayed file's intact length before reattaching.
	nextOff int64

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

// appendSnapshot enqueues one accepted snapshot's (Hello, Snapshot)
// frame pair. It copies both into a private buffer first, so the
// caller's scratch body can be reused immediately. The returned ref
// locates the entry in frames.jnl — valid because appends are
// caller-ordered under r.mu — letting the bounded-memory
// ingest path treat the journal as its payload spill. The returned
// wait function is non-nil only under SyncAlways: the caller must
// invoke it (outside any lock) before acking, and it blocks until the
// entry is fsynced.
func (j *journal) appendSnapshot(h *wire.Hello, body []byte) (ref framelog.Ref, wait func()) {
	entry := framelog.AppendPair(nil, h, body)
	ref = framelog.Ref{Off: j.nextOff, Len: int64(len(entry))}
	j.nextOff += ref.Len
	var done chan struct{}
	if j.mode == SyncAlways {
		done = make(chan struct{})
	}
	ok := j.q.Do(func() {
		if done != nil {
			defer close(done)
		}
		if j.f == nil || j.broken.Load() {
			return
		}
		asp := j.obs.Start("journal", "journal.append").
			WithRun(j.man.RunID, -1, j.man.Epoch).WithAttr("bytes", int64(len(entry)))
		if _, err := j.f.Write(entry); err != nil {
			j.fail("append", err)
			asp.WithStr("result", "error").End()
			return
		}
		asp.End()
		j.oldestDirty.CompareAndSwap(0, time.Now().UnixNano())
		j.frames.Add(1)
		j.bytes.Add(int64(len(entry)))
		j.m.JournalFrames.Inc()
		j.m.JournalBytes.Add(int64(len(entry)))
		switch j.mode {
		case SyncAlways:
			j.fsyncNow()
		case SyncBatch:
			j.dirty = true
			j.armFlush()
		}
	})
	if !ok || done == nil {
		return ref, nil
	}
	return ref, func() { <-done }
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

// finalizeRun records the run's terminal state in the manifest and
// drops the frames file — the finalized trace under OutDir is the
// durable artifact now, and a restart re-registers the run from the
// manifest alone. Ordered after every pending append by the queue.
// Capture mode (KeepJournalFrames) skips the drop, fsyncing instead so
// the retained recording is complete.
func (j *journal) finalizeRun(state, reason string) {
	j.q.Do(func() {
		j.man.State = state
		j.man.Reason = reason
		j.writeManifestNow()
		if j.f != nil {
			if j.keep && j.dirty && j.mode != SyncOff {
				j.fsyncNow()
			}
			j.f.Close()
			j.f = nil
		}
		if j.keep {
			return
		}
		if err := j.dir.RemoveFrames(); err != nil {
			j.fail("remove frames", err)
		}
	})
	// Drain and stop the worker off the finalize path; appends cannot
	// arrive after finalize (ingest rejects non-collecting runs).
	go j.q.Close()
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
// the on-disk trace), collecting runs replay their frame log through
// the idempotent ingest path. Runs before the listener accepts, so a
// reconnecting producer never races its own replay.
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
// without admission checks — it was admitted before the crash.
func (s *Server) registerRecovered(m *framelog.Manifest) *run {
	r := newRun(m.RunID, m.World, m.Epoch, m.TimingMode, m.TimingBase)
	r.opts.ObsSink = s.obs
	r.opts.MaxResidentSnapshots = s.cfg.MaxResidentSnapshots
	r.created = time.Unix(0, int64(m.CreatedSec*1e9))
	s.mu.Lock()
	s.runs[m.RunID] = r
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
