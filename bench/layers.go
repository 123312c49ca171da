package main

// Per-layer attribution for a traced pass: every layer's public
// functions driven alone, from outside, over the same recording and the
// same snapshots the pass used. Each drive sits in a span; the figures
// are Σ of per-rank wall time ÷ operations, like the end-to-end ones.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// gcIn forces a collection inside a stage, in a span of its own so the
// stage's time stays accounted for.
func gcIn(log *spanLog, parent spanRef, pass int) {
	sp := log.begin("harness.gc", parent, pass, 0)
	runtime.GC()
	sp.end(1)
}

// layerServers are the two extra collectors the traced run compares
// the main one against: one without a journal, one with obs sinks on.
type layerServers struct {
	noJournal, withObs *collectSrv
	sink               *obsSink
}

func (fx *fixture) startLayerServers() (*layerServers, error) {
	ls := &layerServers{sink: newObsSink()}
	var err error
	if ls.noJournal, err = startCollector("", nil); err != nil {
		return nil, err
	}
	if ls.withObs, err = startCollector(filepath.Join(fx.dir, "collect-obs"), ls.sink); err != nil {
		collectorClose(ls.noJournal)
		return nil, err
	}
	return ls, nil
}

func (ls *layerServers) close() {
	collectorClose(ls.noJournal)
	collectorClose(ls.withObs)
}

// layerRun is one iteration's per-layer drive: the spanned pass it
// belongs to (checks that fail here count against it) and the values
// measured so far.
type layerRun struct {
	fx   *fixture
	n    int
	log  *spanLog
	root spanRef
	po   *passOut
	m    map[string]float64
}

// layers drives every layer alone and returns this iteration's
// per-layer values.
func (fx *fixture) layers(n int, log *spanLog, po *passOut, ls *layerServers) map[string]float64 {
	lr := &layerRun{fx: fx, n: n, log: log, po: po, m: map[string]float64{}, root: log.begin("layers", spanRef{}, n, 0)}
	lr.tracerSide()
	snaps := lr.finalizeSide()
	lr.decodeSide()
	lr.collectorSide(snaps, ls)
	lr.root.end(0)
	return lr.m
}

// tracerSide: sig -> cst -> sequitur, timing, and Post with metrics on,
// each alone over the recording.
func (lr *layerRun) tracerSide() {
	fx, n, log, m := lr.fx, lr.n, lr.log, lr.m
	streams, P := fx.rec.streams, len(fx.rec.streams)
	calls := float64(fx.rec.calls)
	post := lr.po.metrics["trace_ns_per_call"]
	m["core.post_ns_per_call"] = post
	m["core.post_allocs_per_call"] = lr.po.allocs
	m["core.post_alloc_bytes_per_call"] = lr.po.allocB

	type iso struct {
		*sigDriver
		terms []int32
		g     *grammar
	}
	isos := make([]iso, P)
	for r, s := range streams {
		isos[r] = iso{terms: make([]int32, s.calls), sigDriver: &sigDriver{
			enc: newSigEncoder(r, &oobReplay{log: s.oob}), sigs: make([]byte, 0, s.calls*32), off: make([]uint32, 1, s.calls+1)}}
	}
	st := log.begin("stage.tracer_layers", lr.root, n, 0)
	gcIn(log, st, n)
	harnessNs := fx.sweep(log, st, "harness.replay", n, func(r int) int {
		replayInto(streams[r], r, nopInterceptor{})
		return streams[r].calls
	})
	a0 := memStats().Mallocs
	sigNs := fx.sweep(log, st, "sig.EncodeTo", n, func(r int) int {
		replayInto(streams[r], r, isos[r].sigDriver)
		return streams[r].calls
	}) - harnessNs
	a1 := memStats().Mallocs
	sigBytes := 0
	for r := range isos {
		sigBytes += len(isos[r].sigs)
	}
	m["harness.replay_ns_per_call"] = harnessNs / calls
	m["sig.encode_ns_per_call"] = sigNs / calls
	m["sig.encode_allocs_per_call"] = float64(a1-a0) / calls
	m["sig.sig_bytes_mean"] = float64(sigBytes) / calls

	var entries atomic.Int64
	cstNs := fx.sweep(log, st, "cst.Table.Add", n, func(r int) int {
		s, is := streams[r], &isos[r]
		t := newCST()
		i := 0
		for k := range s.events {
			if e := &s.events[k]; e.kind == evCall {
				is.terms[i] = cstAdd(t, is.sigs[is.off[i]:is.off[i+1]], e.b-e.a)
				i++
			}
		}
		entries.Add(int64(cstLen(t)))
		return s.calls
	})
	m["cst.add_ns_per_call"] = cstNs / calls
	m["cst.hit_ratio"] = 1 - float64(entries.Load())/calls
	m["cst.entries_per_rank"] = float64(entries.Load()) / float64(P)

	var rules, symbols atomic.Int64
	gcIn(log, st, n)
	a0 = memStats().Mallocs
	seqNs := fx.sweep(log, st, "sequitur.Grammar.Append", n, func(r int) int {
		g := newGrammar()
		for _, t := range isos[r].terms {
			grammarAppend(g, t)
		}
		isos[r].g = g
		return len(isos[r].terms)
	})
	a1 = memStats().Mallocs
	serNs := fx.sweep(log, st, "sequitur.Grammar.Serialize", n, func(r int) int {
		ru, sy := grammarSize(isos[r].g)
		rules.Add(int64(ru))
		symbols.Add(int64(sy))
		return grammarSerialize(isos[r].g)
	})
	m["sequitur.append_ns_per_call"] = seqNs / calls
	m["sequitur.allocs_per_call"] = float64(a1-a0) / calls
	m["sequitur.rules_per_rank"] = float64(rules.Load()) / float64(P)
	m["sequitur.symbols_per_rank"] = float64(symbols.Load()) / float64(P)
	m["sequitur.serialize_us_per_rank"] = serNs / 1e3 / float64(P)

	timNs := fx.sweep(log, st, "timing.Compressor.Record", n, func(r int) int {
		s, c := streams[r], newTiming()
		i := 0
		for k := range s.events {
			if e := &s.events[k]; e.kind == evCall {
				timingRecord(c, isos[r].terms[i], e.fn, e.a, e.b)
				i++
			}
		}
		return s.calls
	})
	m["timing.record_ns_per_call"] = timNs / calls
	inPost := harnessNs + sigNs + cstNs + seqNs
	if fx.wl.lossy {
		inPost += timNs
	}
	m["core.post_self_ns_per_call"] = post - inPost/calls
	isos = nil

	withMetrics := fx.opts
	withMetrics.Collector = newMetricsCollector()
	gcIn(log, st, n)
	metNs := fx.sweep(log, st, "core.Tracer.Post+metrics", n, func(r int) int {
		replayInto(streams[r], r, newTracer(r, &oobReplay{log: streams[r].oob}, withMetrics))
		return streams[r].calls
	})
	m["metrics.post_delta_ns_per_call"] = metNs/calls - post
	st.end(fx.rec.calls)
}

// finalizeSide takes snapshots of a fresh replay and drives snapshot,
// wire, spill, CST merge, the rest of finalize and the trace writer
// over them; the trace built layer by layer must be the oracle too. It
// returns the snapshots for the collector side.
func (lr *layerRun) finalizeSide() []*snapshot {
	fx, n, log, m, po := lr.fx, lr.n, lr.log, lr.m, lr.po
	P := len(fx.rec.streams)
	perRank := func(ns float64) float64 { return ns / 1e3 / float64(P) } // µs
	st := log.begin("stage.finalize_layers", lr.root, n, 0)
	gcIn(log, st, n)
	tracers, _ := fx.replayAll(log, st, n, fx.opts, po)
	snaps := make([]*snapshot, P)
	m["core.snapshot_us_per_rank"] = perRank(fx.sweep(log, st, "core.Tracer.Snapshot", n, func(r int) int {
		snaps[r] = takeSnapshot(tracers[r])
		return 1
	}))
	tracers = nil

	gcIn(log, st, n)
	bodies := make([][]byte, P)
	var wireBytes, wireBad atomic.Int64
	m["wire.encode_us_per_snap"] = perRank(fx.sweep(log, st, "wire.EncodeSnapshot", n, func(r int) int {
		bodies[r] = wireEncode(snaps[r])
		wireBytes.Add(int64(len(bodies[r])))
		return 1
	}))
	m["wire.decode_us_per_snap"] = perRank(fx.sweep(log, st, "wire.DecodeSnapshot", n, func(r int) int {
		if s, err := wireDecode(bodies[r]); err != nil || snapshotRank(s) != r {
			wireBad.Add(1)
		}
		return 1
	}))
	m["wire.bytes_per_snap"] = float64(wireBytes.Load()) / float64(P)
	po.check(wireBad.Load() == 0, "wire: %d snapshots did not survive encode and decode", wireBad.Load())
	bodies = nil

	// Spill: write every rank, read every rank back in batches of K.
	spillDir := filepath.Join(fx.dir, "layer-spill")
	K := P
	if fx.wl.route == routeSpill {
		K = fx.opts.MaxResidentSnapshots
	}
	sw, err := newSpill(spillDir, P, fx.opts)
	if err == nil {
		m["spill.add_us_per_rank"] = perRank(timed(log, st, "spill.Writer.Add", n, P, func() {
			for r := 0; r < P && err == nil; r++ {
				err = spillAdd(sw, snaps[r])
			}
		}))
		if fi, serr := os.Stat(filepath.Join(spillDir, "frames.jnl")); serr == nil {
			m["spill.bytes_per_rank"] = float64(fi.Size()) / float64(P)
		}
		m["spill.fetch_us_per_rank"] = perRank(timed(log, st, "spill.Writer.Fetch", n, P, func() {
			for start := 0; start < P && err == nil; start += K {
				_, err = spillFetch(sw, start, min(K, P-start))
			}
		}))
		spillClose(sw)
	}
	po.check(err == nil, "spill layer: %v", err)

	// CST merge, then the rest of finalize given the merged table.
	gcIn(log, st, n)
	inc := newIncremental(P)
	err = nil
	mergeNs := timed(log, st, "cst.Incremental.Add", n, P, func() {
		for r := 0; r < P && err == nil; r++ {
			err = incAdd(inc, r, snapshotTable(snaps[r]))
		}
	})
	if !po.check(err == nil, "cst merge: %v", err) {
		st.end(P)
		return snaps
	}
	merged := incResult(inc)
	m["cst.merge_ms"] = mergeNs / 1e6
	m["collect.merge_us_per_snap"] = perRank(mergeNs)
	m["cst.global_entries"] = float64(cstLen(merged.Table))

	gcIn(log, st, n)
	peak := newHeapPeak()
	b0 := memStats().TotalAlloc
	var f *traceFile
	var uniq int
	finNs := timed(log, st, "core.FinalizePremerged", n, P, func() { f, uniq = finalizePremerged(snaps, merged, fx.opts) })
	b1 := memStats().TotalAlloc
	m["core.finalize_peak_heap_mb"] = peak.stop() / (1 << 20)
	m["core.finalize_self_ms"] = finNs / 1e6
	m["core.finalize_alloc_mb"] = float64(b1-b0) / (1 << 20)
	m["core.unique_cfgs"] = float64(uniq)

	var data []byte
	m["trace.write_ms"] = timed(log, st, "trace.WriteTo", n, 1, func() { data, err = traceWrite(f) }) / 1e6
	po.check(err == nil && bytes.Equal(data, fx.rec.oracle), "layer-by-layer finalize: trace differs from the oracle (%v)", err)
	cstB, cfgB, timingB := traceSections(f)
	m["trace.cst_bytes"], m["trace.cfg_bytes"], m["trace.timing_bytes"] = float64(cstB), float64(cfgB), float64(timingB)
	st.end(P)
	return snaps
}

// decodeSide: trace.Read, then grammar expansion and signature decode
// apart, over the oracle.
func (lr *layerRun) decodeSide() {
	fx, n, log, m := lr.fx, lr.n, lr.log, lr.m
	P := len(fx.rec.streams)
	calls := float64(fx.rec.calls)
	st := log.begin("stage.decode_layers", lr.root, n, 0)
	defer func() { st.end(fx.rec.calls) }()
	gcIn(log, st, n)
	var f *traceFile
	var err error
	m["trace.read_ms"] = timed(log, st, "trace.Read", n, 1, func() { f, err = traceRead(fx.rec.oracle) }) / 1e6
	if !lr.po.check(err == nil, "trace.Read: %v", err) {
		return
	}
	terms := make([][]int32, P)
	var bad atomic.Int64
	m["trace.terms_ns_per_call"] = fx.sweep(log, st, "trace.File.Terms", n, func(r int) int {
		var err error
		if terms[r], err = traceTerms(f, r); err != nil {
			bad.Add(1)
		}
		return len(terms[r])
	}) / calls
	table := traceCST(f)
	m["sig.decode_ns_per_call"] = fx.sweep(log, st, "sig.Decode", n, func(r int) int {
		for _, t := range terms[r] {
			if _, err := sigDecodeFunc(cstSig(table, t)); err != nil {
				bad.Add(1)
			}
		}
		return len(terms[r])
	}) / calls
	lr.po.check(bad.Load() == 0, "decode layers: %d errors", bad.Load())
}

// collectorSide ships the same snapshots four ways: SendSnapshot to the
// main collector, pre-encoded frames over open connections, SendSnapshot
// to a collector without a journal, and to one with obs sinks on.
func (lr *layerRun) collectorSide(snaps []*snapshot, ls *layerServers) {
	fx, n, log, m, po := lr.fx, lr.n, lr.log, lr.m, lr.po
	P := len(snaps)
	st := log.begin("stage.collect_layers", lr.root, n, 0)
	gcIn(log, st, n)
	before := collectorCounters(fx.srv)
	main := fx.ship(fx.srv, nil, snaps, log, st, n)
	gcIn(log, st, n) // and the journal queue drains before its counters are read
	after := collectorCounters(fx.srv)
	raw := fx.shipRaw(snaps, log, st, n, po)
	gcIn(log, st, n)
	nj := fx.ship(ls.noJournal, nil, snaps, log, st, n)
	gcIn(log, st, n)
	ob := fx.ship(ls.withObs, ls.sink, snaps, log, st, n)
	st.end(P)
	for _, sh := range []shipOut{main, nj, ob} {
		po.attempted += P
		po.failed += sh.failed
		po.check(bytes.Equal(sh.trace, fx.rec.oracle), "collector: trace differs from the oracle")
	}
	ack := quantile(main.lat, 0.5)
	m["collect.ack_p50_us"] = ack
	m["collect.ack_p99_us"] = quantile(main.lat, 0.99)
	m["collect.ack_p999_us"] = quantile(main.lat, 0.999)
	m["collect.ingest_snaps_per_s"] = float64(P) / main.sendWall.Seconds()
	m["collect.wait_ms"] = main.waitWall.Seconds() * 1e3
	m["collect.retries"] = float64(main.retries)
	m["collect.journal_bytes_per_snap"] = float64(after.journalBytes-before.journalBytes) / float64(P)
	m["collect.journal_fsyncs_per_run"] = float64(after.journalFsyncs - before.journalFsyncs)
	m["collect.nacks"] = float64(after.nacks - before.nacks)
	m["collect.dup_snapshots"] = float64(after.dups - before.dups)
	m["collect.rejected_snapshots"] = float64(after.rejected - before.rejected)
	m["collect.conn_setup_us"] = ack - raw
	m["collect.journal_delta_us"] = ack - quantile(nj.lat, 0.5)
	m["obs.ack_delta_pct"] = (quantile(ob.lat, 0.5) - ack) / ack * 100
}

// sigDriver is the signature encoder alone behind the interceptor
// interface: every call's signature is appended to one arena, off marks
// where each ends.
type sigDriver struct {
	enc  *sigEncoder
	sigs []byte
	off  []uint32
}

func (d *sigDriver) Pre(*callRecord) {}
func (d *sigDriver) Post(rec *callRecord) {
	d.sigs = sigEncode(d.enc, d.sigs, rec)
	d.off = append(d.off, uint32(len(d.sigs)))
}
func (d *sigDriver) MemAlloc(addr, size uint64, dev int32) { sigMemAlloc(d.enc, addr, size, dev) }
func (d *sigDriver) MemFree(addr uint64)                   { sigMemFree(d.enc, addr) }

// shipRaw sends the snapshots as pre-encoded frame pairs over one open
// connection per sender and returns the p50 latency in µs: SendSnapshot
// without the dial and without the encode.
func (fx *fixture) shipRaw(snaps []*snapshot, log *spanLog, parent spanRef, n int, po *passOut) float64 {
	P := len(snaps)
	fx.seq++
	run := fmt.Sprintf("%s-raw-%06d", fx.wl.name, fx.seq)
	hellos, bodies := make([][]byte, P), make([][]byte, P)
	conns := make([]*rawConn, fx.workers+1) // one per sender, one to wait on
	var err error
	timed(log, parent, "wire.frame_pairs+dial", n, P, func() {
		for r, s := range snaps {
			hellos[r], bodies[r] = wireFramePair(run, P, uint64(fx.seq), fx.wl.lossy, s)
		}
		for i := range conns {
			if conns[i], err = dialRaw(collectorAddr(fx.srv)); err != nil {
				return
			}
		}
	})
	defer func() {
		for _, c := range conns {
			if c != nil {
				rawClose(c)
			}
		}
	}()
	if !po.check(err == nil, "raw ship: dial: %v", err) {
		return 0
	}
	lat, failed, _ := fx.closedLoop(log, parent, "collect.RawConn.SendPair", n, P,
		func(w, r int) error { return rawSendPair(conns[w], hellos[r], bodies[r]) })
	var trace []byte
	if failed == 0 {
		timed(log, parent, "collect.RawConn.WaitTrace", n, 1, func() { trace, _ = rawWaitTrace(conns[fx.workers], run) })
	}
	po.check(failed == 0 && bytes.Equal(trace, fx.rec.oracle), "raw ship: %d send errors or trace differs from the oracle", failed)
	return quantile(lat, 0.5)
}

// heapPeak polls HeapAlloc every 2 ms until stopped.
type heapPeak struct {
	done chan struct{}
	out  chan float64
}

func newHeapPeak() *heapPeak {
	h := &heapPeak{done: make(chan struct{}), out: make(chan float64)}
	go func() {
		peak := memStats().HeapAlloc
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, memStats().HeapAlloc)
			case <-h.done:
				h.out <- float64(max(peak, memStats().HeapAlloc))
				return
			}
		}
	}()
	return h
}

func (h *heapPeak) stop() float64 {
	close(h.done)
	return <-h.out
}
