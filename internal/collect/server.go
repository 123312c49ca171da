// Package collect is Pilgrim's networked trace collection subsystem:
// a TCP collector server that ingests per-rank tracer snapshots
// (framed by internal/wire), runs the finalize walk over them as they
// arrive, and finalizes each run into the same trace file an
// in-process MPI_Finalize merge would have produced — byte for byte —
// plus the client that ships snapshots with retry, backoff, and
// idempotent re-send.
//
// The paper's §3.5 inter-process compression assumes every rank's
// grammar and CST meet inside one job at MPI_Finalize. The collector
// decouples that: producers stream their crash-consistent snapshots
// out, and the server advances the same rank-order walk every local
// finalize runs (core.Walk) over the contiguous prefix of ranks that
// have reported, so when the last rank lands only the walk's tail is
// left (run.go). Ranks that never report are degraded to salvage
// semantics at a straggler deadline: each becomes an empty stream, as a
// rank that traced nothing does in a local salvage finalize.
package collect

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// Config configures a collector server.
type Config struct {
	// Listen is the TCP ingest address (host:port; port 0 picks a free
	// one — read it back with Addr).
	Listen string
	// OutDir, when non-empty, is where finalized traces are written as
	// <runID>.pilgrim.
	OutDir string
	// StragglerDeadline bounds how long a run may collect after its
	// first snapshot arrives; when it fires with ranks missing, the run
	// is finalized as a salvage trace (missing ranks listed as failed,
	// their streams empty). Zero waits forever; negative is refused.
	StragglerDeadline time.Duration
	// IdleTimeout bounds how long a connection may sit between frames
	// (zero means 5 minutes; Start refuses a negative timeout).
	IdleTimeout time.Duration
	// Retention bounds how long a finalized run's trace bytes stay in
	// server memory once OutDir holds a disk copy; after it elapses the
	// in-memory bytes are dropped and waiters/admin fetches are served
	// from the file, so a long-running daemon does not grow without
	// bound. Zero means a 10-minute default; negative retains forever.
	// Runs without a disk copy (no OutDir, or the write failed) are
	// never evicted.
	Retention time.Duration
	// JournalSync selects the run journal's fsync policy (always,
	// batch, off; "" means batch). The journal itself is active
	// whenever OutDir is set: every accepted snapshot is appended to
	// OutDir/journal/<run>/ so a restarted daemon can replay in-flight
	// runs instead of losing them.
	JournalSync SyncMode
	// MaxRuns caps the runs collecting at once; a hello that would
	// create one more is NACKed, and its producer falls back to local
	// finalize. Zero means unlimited; Start refuses a negative cap.
	MaxRuns int
	// MaxRunBytes caps the snapshot body bytes accepted into one run;
	// the snapshot that would exceed it is NACKed. Zero means
	// unlimited; Start refuses a negative cap.
	MaxRunBytes int64
	// MaxConns caps concurrent ingest connections; excess connections
	// receive a NACK frame and are closed without being served. Zero
	// means unlimited; Start refuses a negative cap.
	MaxConns int
	// AwaitStragglers is how long a still-incomplete run may sit with no
	// arrivals before its health phase flips from "ingesting" to
	// "awaiting-stragglers" (an operator signal only — the straggler
	// deadline still governs salvage). Zero means a 2s default; negative
	// disables the transition.
	AwaitStragglers time.Duration
	// JournalLagWarn logs one rate-limited warning when a journal fsync
	// lands later than this after its oldest queued byte (0 disables;
	// Start refuses a negative one).
	JournalLagWarn time.Duration
	// MaxResidentSnapshots caps how many not-yet-walked snapshots per
	// run keep their payloads in memory. Beyond the cap an accepted
	// snapshot's payloads are dropped once its journal entry is
	// appended, and the walk reads them back from the run journal when
	// it reaches the rank, in batches no larger than the cap — peak
	// memory stays O(cap) instead of O(world) with byte-identical
	// output. Requires OutDir (the journal is the spill); runs without a
	// healthy journal keep everything resident. Zero means unbounded;
	// Start refuses a negative cap.
	MaxResidentSnapshots int
	// KeepJournalFrames retains each run's frames.jnl after finalize
	// instead of dropping it. Normal operation deletes the frames (the
	// finalized trace is the durable artifact); capture mode keeps them
	// so the journal doubles as a complete wire-format recording that
	// pilgrim-loadgen can replay and pilgrim-dump can inspect.
	KeepJournalFrames bool
	// Metrics receives the collector's instrumentation; nil creates a
	// private registry (reachable via Server.Metrics).
	Metrics *Metrics
	// Obs, when non-nil, is the pipeline flight recorder: connection,
	// ingest, journal, recovery, and finalize spans are recorded into
	// it, and the same sink is threaded through core.Options so the
	// finalize stages land on the same timeline. Nil disables tracing
	// at one pointer check per site.
	Obs *obs.Sink
	// Logf, when non-nil, receives one-line operational logs.
	Logf func(format string, args ...any)
}

// Server is the collector daemon's core: TCP ingest plus the run
// registry. HTTP administration is layered on via AdminHandler.
type Server struct {
	cfg   Config
	fs    framelog.FS // where run journals live
	m     *Metrics
	obs   *obs.Sink
	ln    net.Listener
	watch *broadcaster // /watch SSE fan-out; publish never blocks ingest

	// closing stops the runs' walkers during shutdown: each stops its
	// walk instead of walking or finalizing, so in-flight runs stay
	// unfinalized, matching Close's contract.
	closing atomic.Bool

	mu       sync.Mutex
	runs     map[string]*run
	conns    map[net.Conn]struct{}
	closed   bool
	shutdown chan struct{} // closed in Close; unblocks parked waiters
	wg       sync.WaitGroup
	start    time.Time

	// collecting counts runs not yet in a terminal phase, for MaxRuns
	// admission: incremented under s.mu where runs are created,
	// decremented by finalize (which holds only r.mu), hence atomic.
	collecting atomic.Int64
}

// overLimit is an admission rejection; the wire carries it as a Nack
// frame so the client knows to fall back rather than retry.
type overLimit struct {
	code   uint8
	detail string
}

func (e *overLimit) Error() string {
	return fmt.Sprintf("over limit (%s): %s", wire.NackCodeString(e.code), e.detail)
}

// Start listens on cfg.Listen and serves ingest connections in the
// background until Close.
func Start(cfg Config) (*Server, error) { return start(cfg, framelog.OS) }

// start is Start with run journals on fsys.
func start(cfg Config, fsys framelog.FS) (*Server, error) {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.AwaitStragglers == 0 {
		cfg.AwaitStragglers = 2 * time.Second
	}
	mode, err := ParseSyncMode(string(cfg.JournalSync))
	if err != nil {
		return nil, err
	}
	cfg.JournalSync = mode
	// A negative cap or timeout would read as "off" where it is used; a
	// negative idle timeout puts every read deadline in the past.
	for name, d := range map[string]time.Duration{"idle timeout": cfg.IdleTimeout,
		"straggler deadline": cfg.StragglerDeadline, "journal lag warn": cfg.JournalLagWarn} {
		if d < 0 {
			return nil, fmt.Errorf("collect: %s %v is negative", name, d)
		}
	}
	for name, n := range map[string]int64{"max runs": int64(cfg.MaxRuns), "max run bytes": cfg.MaxRunBytes,
		"max conns": int64(cfg.MaxConns), "max resident snapshots": int64(cfg.MaxResidentSnapshots)} {
		if n < 0 {
			return nil, fmt.Errorf("collect: %s %d is negative", name, n)
		}
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		fs:       fsys,
		m:        cfg.Metrics,
		obs:      cfg.Obs,
		ln:       ln,
		runs:     make(map[string]*run),
		conns:    make(map[net.Conn]struct{}),
		shutdown: make(chan struct{}),
		start:    time.Now(),
	}
	if s.m == nil {
		s.m = NewMetrics(nil)
	}
	s.m.registerProcess(s.start, s.obs)
	s.watch = newBroadcaster(s.m)
	// Recovery runs to completion before the listener accepts, so a
	// reconnecting producer can never race the replay of its own run.
	if s.cfg.OutDir != "" {
		s.recoverJournals()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound ingest address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Metrics returns the server's instrumentation bundle.
func (s *Server) Metrics() *Metrics { return s.m }

// Obs returns the server's flight recorder (nil when tracing is off).
func (s *Server) Obs() *obs.Sink { return s.obs }

// Close stops accepting, severs open connections, stops every run's
// walker and waits for them and the handlers to drain. In-flight runs
// are left unfinalized (producers fall back to local finalize), their
// journals flushed and "collecting", for the next daemon to replay.
func (s *Server) Close() error { return s.halt((*journal).close) }

// halt is the one shutdown, graceful (Close) or not (CrashStop, which
// drops the journals instead of flushing them): endJournal ends each
// run's journal once its timers are stopped and its walker woken.
func (s *Server) halt(endJournal func(*journal)) error {
	// Walkers consult closing before each batch and before they
	// finalize, so a run completing during shutdown stays unfinalized.
	s.closing.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Unblock every handler parked in serveWait on an incomplete run:
	// closing its connection does not wake a goroutine blocked on the
	// run's done channel, and with the run timers about to stop, an
	// incomplete run would never finalize — wg.Wait would hang forever.
	close(s.shutdown)
	for c := range s.conns {
		c.Close()
	}
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, r := range runs {
		r.mu.Lock()
		j := r.haltLocked()
		r.mu.Unlock()
		if j != nil {
			endJournal(j)
		}
	}
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.m.AdmissionRejectedConns.Inc()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
				nack := &wire.Nack{Code: wire.NackMaxConns, Detail: fmt.Sprintf("collector at max-conns=%d", s.cfg.MaxConns)}
				wire.WriteFrame(conn, wire.TypeNack, nack.Encode())
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.m.ActiveConns.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn runs one connection's frame loop. A connection carries
// any sequence of (Hello, Snapshot) pairs — one per rank the producer
// ships over it — and/or a Wait that blocks until its run finalizes.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	csp := s.obs.Start("collect", "conn")
	frames := int64(0)
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.m.ActiveConns.Add(-1)
		csp.WithAttr("frames", frames).End()
	}()
	// One decode scratch per connection: the frame-body buffer and
	// decoder cursor are reused across every frame this producer ships,
	// so steady-state ingest allocates only what each decoded snapshot
	// itself retains. The buffered reader takes a producer's whole
	// exchange (hello and snapshot arrive in one write) off the socket
	// in one read; bodies larger than its buffer bypass it.
	var hello *wire.Hello
	var helloRecvNs int64
	var sc wire.DecodeScratch
	br := bufio.NewReader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		typ, body, err := sc.ReadFrame(br)
		if err != nil {
			return // EOF, deadline, or garbage — drop the connection
		}
		recvNs := time.Now().UnixNano()
		frames++
		switch typ {
		case wire.TypeHello:
			h, err := wire.DecodeHello(body)
			if err != nil {
				s.m.RejectedSnapshots.Inc()
				s.sendError(conn, err.Error())
				return
			}
			s.m.IngestBytes.Add(int64(len(body)))
			// A v2 hello may echo the completed timing 4-tuple of an
			// earlier exchange; every echo feeds the run's clock-offset
			// estimator, including the bare hello a client flushes its
			// last sample with before it closes its connections.
			s.feedClockEcho(h)
			hello, helloRecvNs = h, recvNs
		case wire.TypeSnapshot:
			if hello == nil {
				s.sendError(conn, "snapshot before hello")
				return
			}
			s.m.IngestBytes.Add(int64(len(body)))
			ack, nack := s.ingest(hello, body, &sc, false, framelog.Ref{})
			v2 := hello.Version >= 2
			hello = nil
			if nack != nil {
				// Admission rejection: tell the producer precisely why so
				// it can fall back to local finalize, then drop the
				// connection — nothing further on it would be admitted.
				s.send(conn, wire.TypeNack, nack.Encode())
				return
			}
			if v2 {
				// Server-side NTP timestamps: when the hello was read (T2)
				// and when its ack leaves (T3). A v1 peer's strict decoder
				// rejects trailing bytes, so only v2 hellos earn them.
				ack.RecvNs = helloRecvNs
				ack.SendNs = time.Now().UnixNano()
			}
			if err := s.send(conn, wire.TypeAck, ack.Encode()); err != nil {
				return
			}
		case wire.TypeWait:
			w, err := wire.DecodeWait(body)
			if err != nil {
				s.sendError(conn, err.Error())
				return
			}
			if !s.serveWait(conn, w.RunID) {
				return
			}
		default:
			s.sendError(conn, fmt.Sprintf("unexpected frame type 0x%02x", typ))
			return
		}
	}
}

func (s *Server) send(conn net.Conn, typ byte, body []byte) error {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.IdleTimeout))
	return wire.WriteFrame(conn, typ, body)
}

func (s *Server) sendError(conn net.Conn, msg string) {
	s.send(conn, wire.TypeError, []byte(msg))
}

// runFor resolves (creating if needed) the run a hello addresses.
// Journal replay passes fromJournal to bypass admission: a recovered
// run was admitted before the crash.
func (s *Server) runFor(h *wire.Hello, fromJournal bool) (*run, error) {
	if !framelog.ValidRunID(h.RunID) {
		return nil, fmt.Errorf("invalid run id %q", h.RunID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("collector shutting down")
	}
	r, ok := s.runs[h.RunID]
	if ok {
		r.mu.Lock()
		sameEpoch := r.epoch == h.Epoch
		finished := r.phase.terminal()
		r.mu.Unlock()
		if sameEpoch {
			if r.world != h.WorldSize {
				return nil, fmt.Errorf("run %s world size %d != announced %d", h.RunID, r.world, h.WorldSize)
			}
			return r, nil
		}
		// A higher epoch restarts a finished run (a producer retrying
		// after a salvage); it can never mutate one mid-collection.
		if !finished || h.Epoch < r.epoch {
			return nil, fmt.Errorf("run %s is epoch %d; refusing epoch %d", h.RunID, r.epoch, h.Epoch)
		}
		// Quiesce the finished epoch's journal before the new epoch's
		// journal opens the same directory: its queue may still hold the
		// finalize cleanup (manifest rewrite, frame removal), which must
		// not land on top of the successor's files. Its walker needs
		// nothing: it ended when it finalized the epoch.
		r.mu.Lock()
		old := r.journal
		r.mu.Unlock()
		if old != nil {
			old.q.Close()
		}
	}
	if !fromJournal && s.cfg.MaxRuns > 0 && int(s.collecting.Load()) >= s.cfg.MaxRuns {
		return nil, &overLimit{code: wire.NackMaxRuns,
			detail: fmt.Sprintf("collector at max-runs=%d", s.cfg.MaxRuns)}
	}
	r = newRun(h.RunID, h.WorldSize, h.Epoch, h.TimingMode, h.TimingBase)
	r.opts.ObsSink = s.obs
	r.opts.MaxResidentSnapshots = s.cfg.MaxResidentSnapshots
	if d := s.cfg.StragglerDeadline; d > 0 {
		r.timer = time.AfterFunc(d, func() { s.salvageRun(r, d) })
	}
	if s.cfg.OutDir != "" {
		man := framelog.Manifest{
			RunID: h.RunID, Epoch: h.Epoch, World: h.WorldSize,
			TimingMode: h.TimingMode, TimingBase: h.TimingBase,
			CreatedSec: float64(r.created.UnixNano()) / 1e9,
			State:      "collecting",
		}
		// fresh=true truncates any stale frames: an epoch restart of a
		// reused run ID must never replay the previous epoch's journal.
		r.journal = newJournal(s.journalDir(filepath.Join(framelog.Root(s.cfg.OutDir), h.RunID)),
			s.cfg.JournalSync, man, s.m, s.obs, s.logf, true, s.cfg.JournalLagWarn, s.cfg.KeepJournalFrames)
	}
	s.runs[h.RunID] = r
	// Counted under s.mu with s.closed checked, so Close's wait covers
	// every walker.
	s.wg.Add(1)
	go s.walkRun(r)
	s.collecting.Add(1)
	s.m.ActiveRuns.Add(1)
	s.m.RunPhase.With(phaseAdmitted.String()).Add(1)
	s.watch.publish(WatchEvent{Type: "run-admitted", Run: r.id,
		Phase: phaseAdmitted.String(), TsNs: time.Now().UnixNano()})
	s.logf("run %s: created (world=%d epoch=%d)", r.id, r.world, r.epoch)
	return r, nil
}

// ingest decodes one snapshot on the calling (connection) goroutine,
// registers it under the run lock, and extends the run's arrived
// prefix, waking the run's walker when that completes the batch it
// waits for (arriveLocked); it never walks. Returns either the ack or
// the admission NACK to send (exactly one is non-nil). Re-sends of a
// (run, rank, epoch) already accepted ack as duplicates — the
// idempotency that makes both client retry and journal replay safe.
// fromJournal marks recovery replay: admission is bypassed and the
// frame is not re-journaled (jref locates the existing journal entry).
func (s *Server) ingest(h *wire.Hello, body []byte, sc *wire.DecodeScratch, fromJournal bool, jref framelog.Ref) (*wire.Ack, *wire.Nack) {
	dsp := s.obs.Start("collect", "ingest.decode").
		WithRun(h.RunID, h.Rank, h.Epoch).WithAttr("bytes", int64(len(body))).
		WithParent(h.SpanID)
	var snap *core.Snapshot
	var err error
	if sc != nil {
		snap, err = sc.DecodeSnapshot(body)
	} else {
		snap, err = wire.DecodeSnapshot(body)
	}
	if err != nil {
		s.m.RejectedSnapshots.Inc()
		dsp.WithStr("result", "reject").End()
		return &wire.Ack{Status: wire.AckError, Detail: err.Error()}, nil
	}
	dsp.End()
	if snap.Rank != h.Rank {
		s.m.RejectedSnapshots.Inc()
		s.obs.Start("collect", "ingest.reject").WithRun(h.RunID, h.Rank, h.Epoch).
			WithStr("reason", "rank-mismatch").Emit()
		return &wire.Ack{Status: wire.AckError, Detail: fmt.Sprintf("snapshot rank %d != hello rank %d", snap.Rank, h.Rank)}, nil
	}
	r, err := s.runFor(h, fromJournal)
	if err != nil {
		var ol *overLimit
		if errors.As(err, &ol) {
			s.m.AdmissionRejectedRuns.Inc()
			s.obs.Start("collect", "ingest.nack").WithRun(h.RunID, h.Rank, h.Epoch).
				WithStr("code", wire.NackCodeString(ol.code)).Emit()
			return nil, &wire.Nack{Code: ol.code, Detail: ol.detail}
		}
		s.m.RejectedSnapshots.Inc()
		s.obs.Start("collect", "ingest.reject").WithRun(h.RunID, h.Rank, h.Epoch).
			WithStr("reason", "bad-run").Emit()
		return &wire.Ack{Status: wire.AckError, Detail: err.Error()}, nil
	}
	r.mu.Lock()
	// The duplicate check precedes the state check so a retry whose ack
	// was lost still succeeds after the run finalized. That is safe only
	// because runFor keyed the run by (id, epoch): a new logical run
	// reusing the id arrives with a fresh epoch and restarts the run
	// instead of landing here.
	if r.snaps[snap.Rank] != nil {
		r.mu.Unlock()
		s.m.DupSnapshots.Inc()
		s.obs.Start("collect", "ingest.dup").WithRun(h.RunID, h.Rank, h.Epoch).Emit()
		return &wire.Ack{Status: wire.AckDuplicate, Detail: fmt.Sprintf("rank %d already merged", snap.Rank)}, nil
	}
	if r.phase.terminal() {
		// A run recovered from a finalized manifest has no snapshots in
		// memory, so the duplicate check above cannot catch re-sends whose
		// ack the crash ate. Every rank of a finalized run reported by
		// definition: ack them as duplicates, same as before the crash.
		if r.phase == phaseFinalized && r.recovery != nil && r.recovery.FromManifest {
			r.mu.Unlock()
			s.m.DupSnapshots.Inc()
			s.obs.Start("collect", "ingest.dup").WithRun(h.RunID, h.Rank, h.Epoch).
				WithStr("reason", "pre-restart").Emit()
			return &wire.Ack{Status: wire.AckDuplicate, Detail: fmt.Sprintf("rank %d merged before daemon restart", snap.Rank)}, nil
		}
		r.mu.Unlock()
		s.m.RejectedSnapshots.Inc()
		s.obs.Start("collect", "ingest.reject").WithRun(h.RunID, h.Rank, h.Epoch).
			WithStr("reason", "run-finished").Emit()
		return &wire.Ack{Status: wire.AckError, Detail: fmt.Sprintf("run %s already %s", r.id, r.phase)}, nil
	}
	if !fromJournal && s.cfg.MaxRunBytes > 0 && r.bytes+int64(len(body)) > s.cfg.MaxRunBytes {
		r.mu.Unlock()
		s.m.AdmissionRejectedSnaps.Inc()
		s.obs.Start("collect", "ingest.nack").WithRun(h.RunID, h.Rank, h.Epoch).
			WithStr("code", wire.NackCodeString(wire.NackRunBytes)).Emit()
		return nil, &wire.Nack{Code: wire.NackRunBytes,
			Detail: fmt.Sprintf("run %s at max-run-bytes=%d", r.id, s.cfg.MaxRunBytes)}
	}
	// A snapshot whose counts or durations would overflow the merged
	// CST is refused here, whatever order the ranks arrive in, so the
	// walk never meets one.
	if err := r.sums.Admit(snap.Table); err != nil {
		r.mu.Unlock()
		s.m.RejectedSnapshots.Inc()
		s.obs.Start("collect", "ingest.reject").WithRun(h.RunID, h.Rank, h.Epoch).
			WithStr("reason", "overflow").Emit()
		return &wire.Ack{Status: wire.AckError, Detail: fmt.Sprintf("rank %d: %v", snap.Rank, err)}, nil
	}
	r.snaps[snap.Rank] = snap
	r.received++
	r.bytes += int64(len(body))
	s.m.IngestSnapshots.Inc()
	s.m.MergeBacklog.Add(1)
	s.noteArrivalLocked(r, int64(len(body)), time.Now())
	// Journal the accepted frame pair. It joins the journal's pending
	// buffer under r.mu (preserving order), and all file I/O runs on
	// the journal's queue worker; under SyncAlways the ack below is
	// withheld — via jwait, outside the lock — until the group commit
	// that wrote the entry has fsynced.
	var jwait func()
	if r.journal != nil && !fromJournal {
		jref, jwait = r.journal.appendSnapshot(h, body)
	}
	// Bounded-memory mode: beyond the resident cap, an unwalked
	// snapshot's payloads live only in the journal until the walk
	// reaches its rank and reads them back (walkRun).
	if limit := s.cfg.MaxResidentSnapshots; limit > 0 && jref.Len > 0 && r.journal != nil &&
		!r.journal.broken.Load() && r.backlogLocked()-r.spilled > limit {
		if r.jrefs == nil {
			r.jrefs = make([]framelog.Ref, r.world)
		}
		r.jrefs[snap.Rank] = jref
		r.spilled++
		release(snap)
	}
	r.arriveLocked()
	r.mu.Unlock()
	if jwait != nil {
		jwait()
	}
	return &wire.Ack{Status: wire.AckOK}, nil
}

// serveWait blocks until the run finalizes, then sends its trace.
// Returns false when the connection should be dropped.
func (s *Server) serveWait(conn net.Conn, runID string) bool {
	s.mu.Lock()
	r, ok := s.runs[runID]
	s.mu.Unlock()
	if !ok {
		s.sendError(conn, fmt.Sprintf("unknown run %q", runID))
		return false
	}
	// Clear the read deadline: the waiter legitimately idles until the
	// run completes (bounded by the straggler deadline, if any).
	conn.SetReadDeadline(time.Time{})
	select {
	case <-r.done:
	case <-s.shutdown:
		// Close() must not wait on an incomplete run; the producer's
		// WaitTrace errors out and it falls back to local finalize.
		return false
	}
	r.mu.Lock()
	data := r.traceLocked()
	r.mu.Unlock()
	return s.send(conn, wire.TypeTrace, data) == nil
}

// --- status ------------------------------------------------------------------

// RunStatus is one run's externally visible state (admin API).
type RunStatus struct {
	ID         string  `json:"id"`
	WorldSize  int     `json:"world_size"`
	Epoch      uint64  `json:"epoch"`
	State      string  `json:"state"`
	Received   int     `json:"received"`
	Missing    []int   `json:"missing,omitempty"`
	Calls      int64   `json:"calls"`
	TraceBytes int     `json:"trace_bytes"`
	TracePath  string  `json:"trace_path,omitempty"`
	Reason     string  `json:"reason,omitempty"`
	CreatedSec float64 `json:"created_unix"`
	DoneSec    float64 `json:"finalized_unix,omitempty"`
}

func (r *run) status() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID: r.id, WorldSize: r.world, Epoch: r.epoch,
		State: r.phase.state(), Received: r.received,
		TraceBytes: r.traceLen, TracePath: r.tracePath,
		Reason:     r.reason,
		CreatedSec: float64(r.created.UnixNano()) / 1e9,
	}
	if !r.doneAt.IsZero() {
		st.DoneSec = float64(r.doneAt.UnixNano()) / 1e9
	}
	for rank := 0; rank < r.world; rank++ {
		if s := r.snaps[rank]; s != nil {
			st.Calls += s.Calls
		} else {
			st.Missing = append(st.Missing, rank)
		}
	}
	return st
}

// Runs lists every run's status, deterministically sorted by run ID —
// stable output for admin clients and tests regardless of creation
// timing.
func (s *Server) Runs() []RunStatus {
	out, _ := s.RunsFiltered("", 0)
	return out
}

// RunsFiltered lists run statuses whose IDs start with prefix (""
// matches all), sorted by run ID and truncated to limit entries
// (limit <= 0 means no cap). total is the match count before
// truncation, so paging clients — and the ?limit=-capped admin
// endpoint — can report how much a loadgen-amplified fleet was cut.
func (s *Server) RunsFiltered(prefix string, limit int) (out []RunStatus, total int) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		if prefix == "" || strings.HasPrefix(r.id, prefix) {
			runs = append(runs, r)
		}
	}
	s.mu.Unlock()
	total = len(runs)
	// Sort the (cheap) handles first so a limited listing snapshots only
	// the runs it returns, not every run on a busy daemon.
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })
	if limit > 0 && len(runs) > limit {
		runs = runs[:limit]
	}
	out = make([]RunStatus, len(runs))
	for i, r := range runs {
		out[i] = r.status()
	}
	return out, total
}

// Run returns one run's status.
func (s *Server) Run(id string) (RunStatus, bool) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return RunStatus{}, false
	}
	return r.status(), true
}

// Recovery returns one run's crash-recovery and journal view (admin
// GET /runs/{id}/recovery). Live journal counters are read fresh; the
// replay fields are a snapshot taken at startup.
func (s *Server) Recovery(id string) (RecoveryStatus, bool) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return RecoveryStatus{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var st RecoveryStatus
	if r.recovery != nil {
		st = *r.recovery
	}
	if r.journal != nil {
		st.JournalFrames, st.JournalBytes, st.JournalBroken = r.journal.status()
		st.JournalPath = r.journal.dir.Path
		st.JournalSync = string(r.journal.mode)
	}
	return st, true
}

// TraceBytes returns a finalized run's serialized trace.
func (s *Server) TraceBytes(id string) ([]byte, bool) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.phase.terminal() {
		return nil, false
	}
	return r.traceLocked(), true
}
