package idpool

// HighWater returns the smallest n such that every id ever handed out
// is < n — the total id space the process needed.
func (p *Pool) HighWater() int32 { return p.next }

// NewRequestPools returns an empty keyed pool set.
func NewRequestPools() *RequestPools { return new(RequestPools) }
