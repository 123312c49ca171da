package main

// Span recording for the traced run. The harness opens a span around
// each call (or per-worker batch of calls) into a layer's public
// functions; spans stay in memory and are written as Chrome trace
// events when the run ends. A nil *spanLog records nothing, so the
// same pipeline code serves the untraced run.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

type span struct {
	Name       string
	ID, Parent int // Parent 0 = root
	Pass       int
	Lane       int   // worker index, the Chrome "tid"
	Start, End int64 // ns since the log was opened
	N          int64 // operations inside the span (calls, ranks, snapshots)
}

type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// spanRef is an open span; the zero value (from a nil log) is inert.
type spanRef struct {
	log *spanLog
	id  int
}

func (l *spanLog) begin(name string, parent spanRef, pass, lane int) spanRef {
	if l == nil {
		return spanRef{}
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent.id, Pass: pass, Lane: lane, Start: now})
	l.mu.Unlock()
	return spanRef{log: l, id: id}
}

// end closes the span, noting how many operations it covered.
func (r spanRef) end(n int) {
	if r.log == nil {
		return
	}
	now := time.Since(r.log.t0).Nanoseconds()
	r.log.mu.Lock()
	s := &r.log.spans[r.id-1]
	s.End, s.N = now, int64(n)
	r.log.mu.Unlock()
}

// selfTimes returns, per span id, its duration minus the part of its
// interval that its child spans cover (children that run in parallel
// are counted once where they overlap).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// write stores the spans in Chrome trace-event form (load in Perfetto
// or chrome://tracing); args carry the ids needed to rebuild the tree.
func (l *spanLog) write(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(l.spans)
	evs := make([]ev, len(l.spans))
	for i, s := range l.spans {
		evs[i] = ev{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Lane, Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "pass": s.Pass, "n": s.N, "self_us": float64(self[s.ID]) / 1e3}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
