package scalatrace

// NumNodes returns the RSD node count.
func (t *Tracer) NumNodes() int { return len(t.nodes) }
