package collect

import (
	"errors"
	"time"

	"github.com/hpcrepro/pilgrim/internal/framelog"
)

// StartOnFS is Start with run journals on fsys, where a test injects
// faults.
func StartOnFS(cfg Config, fsys framelog.FS) (*Server, error) { return start(cfg, fsys) }

// TraceEvicted reports whether a finalized run's in-memory trace
// bytes have been dropped by retention (test hook).
func (s *Server) TraceEvicted(id string) bool {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase.terminal() && r.traceData == nil
}

// RunPayloads counts the ranks of a run that still hold a payload (a
// table or a grammar), and reports whether the run still has a walk
// (test hook).
func (s *Server) RunPayloads(id string) (ranks int, walk bool) {
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, sn := range r.snaps {
		if sn != nil && (sn.Table != nil || sn.Grammar != nil || sn.DurGrammar != nil || sn.IntGrammar != nil) {
			ranks++
		}
	}
	return ranks, r.walk != nil
}

// IsOverLimit reports whether err stems from an admission NACK.
func IsOverLimit(err error) bool {
	var ol *OverLimitError
	return errors.As(err, &ol)
}

// Backoff exposes the client's jittered backoff for bounds tests.
func (c *Client) Backoff(attempt int) time.Duration { return c.backoff(attempt) }

// CrashStop kills the server the way SIGKILL would (test hook): the
// listener and connections are severed, walks stop, and journals are
// dropped without flushing — no fsync, no manifest update — leaving
// on-disk state exactly as a kill at this instant would (written bytes
// live in the page cache; the process-local rest is gone).
func (s *Server) CrashStop() { s.halt((*journal).crash) }
