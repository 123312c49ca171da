package core

import "github.com/hpcrepro/pilgrim/internal/sequitur"

// GrammarStats returns the tracer's current CFG size statistics.
func (t *Tracer) GrammarStats() sequitur.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cfg.Stats()
}

// SetCSTGrain sets the pending CST entries at which a walk hands them to
// its templater, and returns what restores the grain.
func SetCSTGrain(n int) (restore func()) {
	old := cstGrain
	cstGrain = n
	return func() { cstGrain = old }
}
