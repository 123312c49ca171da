package main

// One pass of the pipeline over a recording: replay the streams into
// fresh tracers, finalize through the workload's route (in memory,
// through the spill, or shipped to the collector), decode the trace.
// The trace must equal the oracle bytes and every decoded rank must show
// the recorded function sequence.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// fixture is what set-up builds and every pass uses.
type fixture struct {
	wl      *workload
	rec     *recording
	opts    tracerOpts // options of the replayed tracers
	dir     string     // scratch directory inside the checkout
	srv     *collectSrv
	workers int // W = min(GOMAXPROCS, 4)
	seq     int // run ids handed to the collector so far
}

// setup records the application, checks the live trace is lossless,
// and starts the collector the passes ship to.
func setup(wl *workload, seed int64, smoke bool, dir string) (*fixture, error) {
	ranks, iters := wl.sized(smoke)
	rec, err := record(wl.app, ranks, iters, seed, wl.lossy)
	if err != nil {
		return nil, err
	}
	fx := &fixture{wl: wl, rec: rec, dir: dir, workers: min(runtime.GOMAXPROCS(0), 4)}
	if wl.lossy {
		fx.opts.TimingMode = timingLossy
	}
	if wl.route == routeSpill {
		fx.opts.SpillDir = filepath.Join(dir, "spill")
		fx.opts.MaxResidentSnapshots = min(wl.maxResident, max(ranks/8, 1))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if fx.srv, err = startCollector(filepath.Join(dir, "collect"), nil); err != nil {
		return nil, err
	}
	return fx, nil
}

func (fx *fixture) close() {
	collectorClose(fx.srv)
	os.RemoveAll(fx.dir)
}

// eachWorker runs fn(w) on W goroutines and waits for them.
func (fx *fixture) eachWorker(fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < fx.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// passOut is what one pass measured.
type passOut struct {
	metrics           map[string]float64 // end-to-end values of this pass
	stage             map[string]float64 // stage wall seconds
	attempted, failed int
	allocs, allocB    float64 // per call, trace stage (traced pass only)
}

// check counts one attempted operation, failed unless ok.
func (o *passOut) check(ok bool, what string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(os.Stderr, "FAILED: "+what+"\n", args...)
	}
	return ok
}

// sweep runs fn(rank) for every rank from W workers (rank r on worker
// r mod W), one span per worker, and returns the summed per-rank wall
// time in ns. fn returns how many operations it did, for the span.
func (fx *fixture) sweep(log *spanLog, parent spanRef, name string, pass int, fn func(r int) int) float64 {
	var total atomic.Int64
	P, W := len(fx.rec.streams), fx.workers
	fx.eachWorker(func(w int) {
		sp := log.begin(name, parent, pass, w)
		var ns int64
		ops := 0
		for r := w; r < P; r += W {
			t := time.Now()
			ops += fn(r)
			ns += time.Since(t).Nanoseconds()
		}
		sp.end(ops)
		total.Add(ns)
	})
	return float64(total.Load())
}

// timed runs fn alone in a span and returns its wall time in ns.
func timed(log *spanLog, parent spanRef, name string, pass, ops int, fn func()) float64 {
	sp := log.begin(name, parent, pass, 0)
	t := time.Now()
	fn()
	ns := time.Since(t).Nanoseconds()
	sp.end(ops)
	return float64(ns)
}

// replayAll builds a fresh tracer per rank and replays the recording
// into them; it returns the tracers and the summed per-rank loop time.
// A replayed tracer that asks other out-of-band questions than the
// live one did is a failed operation.
func (fx *fixture) replayAll(log *spanLog, parent spanRef, n int, opts tracerOpts, out *passOut) ([]*tracer, float64) {
	streams := fx.rec.streams
	tracers := make([]*tracer, len(streams))
	oobs := make([]*oobReplay, len(streams))
	timed(log, parent, "core.NewTracer", n, len(streams), func() {
		for r, s := range streams {
			oobs[r] = &oobReplay{log: s.oob}
			tracers[r] = newTracer(r, oobs[r], opts)
		}
	})
	ns := fx.sweep(log, parent, "core.Tracer.Post", n, func(r int) int {
		replayInto(streams[r], r, tracers[r])
		return streams[r].calls
	})
	for r, o := range oobs {
		if o.bad || o.pos != len(o.log) {
			out.check(false, "rank %d: replayed tracer asked other out-of-band questions than the live one", r)
		}
	}
	return tracers, ns
}

// pass runs the pipeline once: trace, finalize through the workload's
// route, decode. log is nil for an untraced pass. runtime.GC() is
// forced between stages, outside every timed region, and runs nowhere
// else (see measure).
func (fx *fixture) pass(n int, log *spanLog) *passOut {
	out := &passOut{metrics: map[string]float64{}, stage: map[string]float64{}}
	streams, P := fx.rec.streams, len(fx.rec.streams)
	calls := float64(fx.rec.calls)
	root := log.begin("pass", spanRef{}, n, 0)

	// Trace: replay every rank's stream into a fresh tracer.
	runtime.GC()
	m0 := memStats()
	st := log.begin("stage.trace", root, n, 0)
	t0 := time.Now()
	tracers, rankNs := fx.replayAll(log, st, n, fx.opts, out)
	out.stage["trace"] = time.Since(t0).Seconds()
	st.end(fx.rec.calls)
	m1 := memStats()
	out.allocs, out.allocB = float64(m1.Mallocs-m0.Mallocs)/calls, float64(m1.TotalAlloc-m0.TotalAlloc)/calls
	out.metrics["trace_ns_per_call"] = rankNs / calls
	runtime.GC()
	out.metrics["trace_live_bytes_per_rank"] = max(float64(memStats().HeapAlloc)-float64(m0.HeapAlloc), 1) / float64(P)

	// Finalize: from "every rank finished tracing" to "trace bytes in
	// hand", through the workload's route.
	var inHand []byte
	var err error
	st = log.begin("stage.finalize", root, n, 0)
	t0 = time.Now()
	switch fx.wl.route {
	case routeCollect:
		snaps := make([]*snapshot, P)
		fx.sweep(log, st, "core.Tracer.Snapshot", n, func(r int) int {
			snaps[r] = takeSnapshot(tracers[r])
			return 1
		})
		sh := fx.ship(fx.srv, nil, snaps, log, st, n)
		out.attempted += P
		out.failed += sh.failed
		inHand = sh.trace
	case routeSpill:
		var f *traceFile
		timed(log, st, "spill.Finalize", n, P, func() { f, err = finalizeSpill(tracers, fx.opts) })
		if err == nil {
			timed(log, st, "trace.WriteTo", n, 1, func() { inHand, err = traceWrite(f) })
		}
	default:
		var f *traceFile
		timed(log, st, "core.Finalize", n, P, func() { f = finalizeInMemory(tracers) })
		timed(log, st, "trace.WriteTo", n, 1, func() { inHand, err = traceWrite(f) })
	}
	out.stage["finalize"] = time.Since(t0).Seconds()
	st.end(P)
	out.check(err == nil && bytes.Equal(inHand, fx.rec.oracle), "finalize: trace differs from the oracle (%v)", err)
	tracers = nil

	// Decode: the analyst's side, from the bytes in hand.
	runtime.GC()
	var f *traceFile
	var bad atomic.Int64
	st = log.begin("stage.decode", root, n, 0)
	t0 = time.Now()
	decNs := timed(log, st, "trace.Read", n, 1, func() { f, err = traceRead(inHand) })
	if err == nil {
		decNs += fx.sweep(log, st, "core.DecodeRank", n, func(r int) int {
			dec, err := decodeRank(f, r)
			if err != nil || !sameFuncs(dec, streams[r]) {
				bad.Add(1)
			}
			return len(dec)
		})
	}
	out.stage["decode"] = time.Since(t0).Seconds()
	st.end(fx.rec.calls)
	root.end(fx.rec.calls)
	out.check(err == nil, "trace.Read: %v", err)
	out.attempted += P
	out.failed += int(bad.Load())
	if bad.Load() > 0 {
		fmt.Fprintf(os.Stderr, "FAILED: %d ranks decoded to another function sequence than recorded\n", bad.Load())
	}

	out.metrics["trace_bytes"] = float64(len(inHand))
	out.metrics["finalize_ms"] = out.stage["finalize"] * 1e3
	out.metrics["decode_ns_per_call"] = decNs / calls
	out.metrics["pass_s"] = out.stage["trace"] + out.stage["finalize"] + out.stage["decode"]
	return out
}

// sameFuncs reports whether the decoded calls are the recorded ones, by
// function id and count.
func sameFuncs(dec []decodedCall, s *stream) bool {
	if len(dec) != s.calls {
		return false
	}
	i := 0
	for k := range s.events {
		if s.events[k].kind != evCall {
			continue
		}
		if dec[i].Func != s.events[k].fn {
			return false
		}
		i++
	}
	return true
}

// shipOut is one closed-loop delivery of a world's snapshots.
type shipOut struct {
	lat                []float64 // µs per SendSnapshot
	sendWall, waitWall time.Duration
	trace              []byte
	failed, retries    int
}

// closedLoop has W senders each send its ranks one after another (rank
// r on sender r mod W, the next only after send returns). It returns
// every send's latency in µs, how many failed, and the wall time from
// first send to last reply.
func (fx *fixture) closedLoop(log *spanLog, parent spanRef, name string, n, P int, send func(w, r int) error) (lat []float64, failed int, wall time.Duration) {
	W := fx.workers
	lats := make([][]float64, W)
	var bad atomic.Int64
	t0 := time.Now()
	fx.eachWorker(func(w int) {
		sp := log.begin(name, parent, n, w)
		for r := w; r < P; r += W {
			t := time.Now()
			if err := send(w, r); err != nil {
				bad.Add(1)
				fmt.Fprintf(os.Stderr, "FAILED: %s rank %d: %v\n", name, r, err)
			}
			lats[w] = append(lats[w], float64(time.Since(t).Nanoseconds())/1e3)
		}
		sp.end(len(lats[w]))
	})
	wall = time.Since(t0)
	for _, l := range lats {
		lat = append(lat, l...)
	}
	return lat, int(bad.Load()), wall
}

// ship sends every snapshot to srv under a fresh run id with
// Client.SendSnapshot (which dials per snapshot), then waits for the
// trace.
func (fx *fixture) ship(srv *collectSrv, sink *obsSink, snaps []*snapshot, log *spanLog, parent spanRef, n int) shipOut {
	fx.seq++
	var retries atomic.Int64
	cli := newClient(collectorAddr(srv), fmt.Sprintf("%s-%06d", fx.wl.name, fx.seq), len(snaps), uint64(fx.seq),
		fx.wl.lossy, sink, func() { retries.Add(1) })
	var out shipOut
	out.lat, out.failed, out.sendWall = fx.closedLoop(log, parent, "collect.Client.SendSnapshot", n, len(snaps),
		func(_, r int) error { return clientSend(cli, snaps[r]) })
	if out.failed == 0 { // with a rank missing the run never finalizes
		var err error
		out.waitWall = time.Duration(timed(log, parent, "collect.Client.WaitTrace", n, 1, func() { out.trace, err = clientWaitTrace(cli) }))
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAILED: wait trace: %v\n", err)
		}
	}
	out.retries = int(retries.Load())
	return out
}
