package collect

import (
	"time"

	"github.com/hpcrepro/pilgrim/internal/wire"
)

// The per-run health model: the run's one state machine, plus live
// progress counters. The phase is the operator's view of *where in its
// life* a run is right now; the coarse state in RunStatus and the
// journal manifest is derived from it (runPhase.state).
//
//	admitted → ingesting → awaiting-stragglers ⇄ ingesting
//	        → finalizing → finalized | salvaged | failed
//
// Transitions happen under r.mu; each one publishes a "phase" event on
// the /watch stream and moves the run between buckets of the
// pilgrim_collect_run_phase gauge vector.

type runPhase int

const (
	phaseAdmitted runPhase = iota
	phaseIngesting
	phaseAwaiting // awaiting-stragglers: no arrival for cfg.AwaitStragglers
	phaseFinalizing
	phaseFinalized
	phaseSalvaged
	phaseFailed
)

var phaseNames = [...]string{
	phaseAdmitted:   "admitted",
	phaseIngesting:  "ingesting",
	phaseAwaiting:   "awaiting-stragglers",
	phaseFinalizing: "finalizing",
	phaseFinalized:  "finalized",
	phaseSalvaged:   "salvaged",
	phaseFailed:     "failed",
}

func (p runPhase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

func (p runPhase) terminal() bool { return p >= phaseFinalized }

// state is the coarse state RunStatus and the journal manifest carry:
// "collecting" until the phase is terminal, then the phase's name.
func (p runPhase) state() string {
	if p.terminal() {
		return p.String()
	}
	return "collecting"
}

// ewmaAlpha weights the ingest-rate moving average: ~70% of the
// estimate comes from the last three arrivals.
const ewmaAlpha = 0.3

// healthPubInterval rate-limits per-run "health" delta events on the
// watch stream; phase transitions always publish immediately.
const healthPubInterval = 100 * time.Millisecond

// HealthStatus is one run's live health view (GET /runs/{id}/health
// and the payload of "health" watch events).
type HealthStatus struct {
	Run       string `json:"run"`
	Phase     string `json:"phase"`
	Epoch     uint64 `json:"epoch"`
	WorldSize int    `json:"world_size"`
	RanksSeen int    `json:"ranks_seen"`
	Bytes     int64  `json:"bytes"`

	IngestRateBps     float64 `json:"ingest_rate_bps"`      // EWMA over arrivals
	LastArrivalAgeSec float64 `json:"last_arrival_age_sec"` // -1 before the first arrival
	JournalLagNs      int64   `json:"journal_fsync_lag_ns"` // 0 when clean or journaling is off
	MergeBacklog      int64   `json:"merge_backlog"`        // ranks received but not yet walked
	ResidentSnapshots int     `json:"resident_snapshots"`   // of those, the ones whose payloads are in memory

	// Clock-offset estimator state (zero until a v2 client has completed
	// at least one echo round trip).
	ClockOffsetNs int64 `json:"clock_offset_ns,omitempty"`
	ClockDelayNs  int64 `json:"clock_rtt_delay_ns,omitempty"`
	ClockSamples  int64 `json:"clock_samples,omitempty"`

	Reason     string  `json:"reason,omitempty"`
	CreatedSec float64 `json:"created_unix"`
	DoneSec    float64 `json:"finalized_unix,omitempty"`
}

// healthLocked snapshots the run's health (r.mu held).
func (r *run) healthLocked(now time.Time) HealthStatus {
	h := HealthStatus{
		Run:       r.id,
		Phase:     r.phase.String(),
		Epoch:     r.epoch,
		WorldSize: r.world,
		RanksSeen: r.received,
		Bytes:     r.bytes,

		IngestRateBps:     r.ewmaBps,
		LastArrivalAgeSec: -1,
		MergeBacklog:      int64(r.backlogLocked()),
		ResidentSnapshots: r.backlogLocked() - r.spilled,

		Reason:     r.reason,
		CreatedSec: float64(r.created.UnixNano()) / 1e9,
	}
	if !r.lastArrival.IsZero() {
		h.LastArrivalAgeSec = now.Sub(r.lastArrival).Seconds()
	}
	if r.journal != nil {
		h.JournalLagNs = r.journal.fsyncLag(now.UnixNano())
	}
	if off, delay, n, ok := r.clock.estimate(); ok {
		h.ClockOffsetNs, h.ClockDelayNs, h.ClockSamples = off, delay, n
	}
	if !r.doneAt.IsZero() {
		h.DoneSec = float64(r.doneAt.UnixNano()) / 1e9
	}
	return h
}

// Health returns one run's live health view.
func (s *Server) Health(id string) (HealthStatus, bool) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return HealthStatus{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthLocked(time.Now()), true
}

// Healths returns every run's health, in the same order as Runs.
func (s *Server) Healths() []HealthStatus {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	now := time.Now()
	out := make([]HealthStatus, 0, len(runs))
	for _, r := range runs {
		r.mu.Lock()
		out = append(out, r.healthLocked(now))
		r.mu.Unlock()
	}
	return out
}

// enterPhaseLocked moves the run to phase p (r.mu held): gauge buckets
// shift, and a "phase" event goes out on the watch stream immediately.
func (s *Server) enterPhaseLocked(r *run, p runPhase) {
	if r.phase == p {
		return
	}
	prev := r.phase
	r.phase = p
	s.m.RunPhase.With(prev.String()).Add(-1)
	s.m.RunPhase.With(p.String()).Add(1)
	ev := WatchEvent{
		Type: "phase", Run: r.id,
		Phase: p.String(), Prev: prev.String(),
		TsNs: time.Now().UnixNano(),
	}
	if p.terminal() {
		h := r.healthLocked(time.Now())
		ev.Health = &h
	}
	s.watch.publish(ev)
}

// publishHealthLocked emits a rate-limited "health" delta event
// (r.mu held). Phase transitions bypass this via enterPhaseLocked.
func (s *Server) publishHealthLocked(r *run, now time.Time) {
	if s.watch == nil || s.watch.n.Load() == 0 {
		return
	}
	if now.Sub(r.lastHealthPub) < healthPubInterval {
		return
	}
	r.lastHealthPub = now
	h := r.healthLocked(now)
	s.watch.publish(WatchEvent{
		Type: "health", Run: r.id, Phase: h.Phase,
		TsNs: now.UnixNano(), Health: &h,
	})
}

// noteArrivalLocked folds one accepted snapshot into the progress
// counters (r.mu held): EWMA ingest rate, last-arrival clock, phase,
// and the straggler-await idle timer.
func (s *Server) noteArrivalLocked(r *run, bytes int64, now time.Time) {
	if !r.lastArrival.IsZero() {
		if dt := now.Sub(r.lastArrival).Seconds(); dt > 0 {
			inst := float64(bytes) / dt
			if r.ewmaBps == 0 {
				r.ewmaBps = inst
			} else {
				r.ewmaBps = ewmaAlpha*inst + (1-ewmaAlpha)*r.ewmaBps
			}
		}
	}
	r.lastArrival = now
	if r.phase == phaseAdmitted || r.phase == phaseAwaiting {
		s.enterPhaseLocked(r, phaseIngesting)
	}
	if r.received < r.world {
		s.armIdleLocked(r)
	} else if r.idle != nil {
		r.idle.Stop()
	}
	s.publishHealthLocked(r, now)
}

// armIdleLocked (re)starts the awaiting-stragglers timer (r.mu held):
// when no snapshot arrives for cfg.AwaitStragglers while ranks are
// still missing, the run's phase flips to awaiting-stragglers so an
// operator can tell a draining run from a stuck one.
func (s *Server) armIdleLocked(r *run) {
	d := s.cfg.AwaitStragglers
	if d <= 0 {
		return
	}
	if r.idle == nil {
		r.idle = time.AfterFunc(d, func() { s.idleFired(r) })
		return
	}
	r.idle.Reset(d)
}

// idleFired marks a quiet, incomplete run as awaiting stragglers.
func (s *Server) idleFired(r *run) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.phase == phaseIngesting && r.received < r.world {
		s.enterPhaseLocked(r, phaseAwaiting)
	}
}

// feedClockEcho folds a hello's echoed timing 4-tuple (a completed
// earlier hello/ack round trip, stamped T1/T4 by the client and T2/T3
// by us) into the run's clock-offset estimator. No-op for v1 hellos,
// echoes that fail the causality check, or unknown runs.
func (s *Server) feedClockEcho(h *wire.Hello) {
	if !h.Echo.Valid() {
		return
	}
	s.mu.Lock()
	r, ok := s.runs[h.RunID]
	s.mu.Unlock()
	if !ok {
		return
	}
	r.mu.Lock()
	if r.epoch == h.Epoch {
		if off, ok := r.clock.addSample(h.Echo.T1, h.Echo.T2, h.Echo.T3, h.Echo.T4); ok {
			// The echo carries the original exchange's own send/receive
			// pair, so every completed round trip yields exactly one
			// corrected one-way latency sample — even a producer that
			// ships a single snapshot per connection.
			lat := (h.Echo.T2 - off) - h.Echo.T1
			if lat < 0 {
				lat = 0
			}
			s.m.E2eLatency.Observe(lat)
		}
	}
	r.mu.Unlock()
}
