package core

import "github.com/hpcrepro/pilgrim/internal/sequitur"

// GrammarStats returns the tracer's current CFG size statistics.
func (t *Tracer) GrammarStats() sequitur.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cfg.Stats()
}
