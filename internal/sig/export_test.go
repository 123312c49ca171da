package sig

// NumRequestPools returns how many distinct request signature pools
// exist (§3.4.3).
func (e *Encoder) NumRequestPools() int { return e.reqPools.NumPools() }

// PendingComms returns how many communicator-id agreements are still
// in flight.
func (e *Encoder) PendingComms() int { return len(e.pending) }
