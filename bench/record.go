package main

// Recorder and replayer. Set-up runs an application skeleton once on
// the simulator with a tee in front of every rank's tracer; the tee
// keeps each intercepted event and each out-of-band answer the tracer
// got. The measured phase feeds the same events to fresh tracers with
// no simulator and no scheduler in the way.

import (
	"fmt"
	"unsafe"
)

const (
	evCall uint8 = iota
	evAlloc
	evFree
)

// event is one interception. For evCall a/b are TStart/TEnd and
// argOff/argN index stream.args; for evAlloc a/b are addr/size; for
// evFree a is the address.
type event struct {
	kind   uint8
	fn     funcID
	argN   uint16
	argOff uint32
	dev    int32
	a, b   int64
}

// arg is one recorded argument value, pointer-free so that the
// garbage collector never scans the recording: i is the scalar, off/n
// window its array in stream.ints (hasArr) or off indexes stream.strs
// (hasStr).
type arg struct {
	i      int64
	off, n uint32
	kind   uint8
	flags  uint8
}

const (
	hasArr uint8 = 1 << iota
	hasStr
)

// oobAnswer is one answer the simulator gave the live tracer.
type oobAnswer struct {
	kind  uint8 // 0 AllreduceMaxInt32, 1 IAllreduceMaxInt32, 2 PollOOB
	done  bool
	value int64 // result or token
}

// stream is one rank's recording, held in flat arenas: events,
// argument values, the integers of array arguments, and the few string
// arguments. Replay rebuilds a call's argument slice in a scratch
// buffer, so it allocates nothing and the arenas hold no pointers.
type stream struct {
	events  []event
	args    []arg
	ints    []int64
	strs    []string
	oob     []oobAnswer
	calls   int
	maxArgs int
}

func (s *stream) addCall(rec *callRecord) {
	off := len(s.args)
	for _, v := range rec.Args {
		a := arg{i: v.I, kind: uint8(v.Kind)}
		if v.Arr != nil {
			a.flags, a.off, a.n = hasArr, uint32(len(s.ints)), uint32(len(v.Arr))
			s.ints = append(s.ints, v.Arr...)
		}
		if v.S != "" {
			a.flags, a.off = a.flags|hasStr, uint32(len(s.strs))
			s.strs = append(s.strs, v.S)
		}
		s.args = append(s.args, a)
	}
	s.events = append(s.events, event{kind: evCall, fn: rec.Func, argN: uint16(len(rec.Args)),
		argOff: uint32(off), a: rec.TStart, b: rec.TEnd})
	s.calls++
	s.maxArgs = max(s.maxArgs, len(rec.Args))
}

// bytes is the stream's resident size.
func (s *stream) bytes() int {
	return len(s.events)*int(unsafe.Sizeof(event{})) + len(s.args)*int(unsafe.Sizeof(arg{})) +
		len(s.ints)*8 + len(s.oob)*int(unsafe.Sizeof(oobAnswer{}))
}

// tee records every event of one rank and hands it on to the live tracer.
type tee struct {
	s    *stream
	next interceptor
}

func (t *tee) Pre(rec *callRecord) { t.next.Pre(rec) }
func (t *tee) Post(rec *callRecord) {
	t.s.addCall(rec)
	t.next.Post(rec)
}
func (t *tee) MemAlloc(addr, size uint64, dev int32) {
	t.s.events = append(t.s.events, event{kind: evAlloc, dev: dev, a: int64(addr), b: int64(size)})
	t.next.MemAlloc(addr, size, dev)
}
func (t *tee) MemFree(addr uint64) {
	t.s.events = append(t.s.events, event{kind: evFree, a: int64(addr)})
	t.next.MemFree(addr)
}

// oobTee logs the simulator's out-of-band answers on their way to the
// live tracer.
type oobTee struct {
	s    *stream
	next oobIface
}

func (o *oobTee) AllreduceMaxInt32(h int64, v int32) int32 {
	r := o.next.AllreduceMaxInt32(h, v)
	o.s.oob = append(o.s.oob, oobAnswer{kind: 0, value: int64(r)})
	return r
}
func (o *oobTee) IAllreduceMaxInt32(h int64, v int32) int64 {
	tok := o.next.IAllreduceMaxInt32(h, v)
	o.s.oob = append(o.s.oob, oobAnswer{kind: 1, value: tok})
	return tok
}
func (o *oobTee) PollOOB(tok int64) (bool, int32) {
	done, r := o.next.PollOOB(tok)
	o.s.oob = append(o.s.oob, oobAnswer{kind: 2, done: done, value: int64(r)})
	return done, r
}

// oobReplay answers a replayed tracer from the log, in order. A
// question of another kind than the logged one marks the replay bad.
type oobReplay struct {
	log []oobAnswer
	pos int
	bad bool
}

func (o *oobReplay) next(kind uint8) oobAnswer {
	if o.pos >= len(o.log) || o.log[o.pos].kind != kind {
		o.bad = true
		return oobAnswer{done: true}
	}
	a := o.log[o.pos]
	o.pos++
	return a
}
func (o *oobReplay) AllreduceMaxInt32(int64, int32) int32  { return int32(o.next(0).value) }
func (o *oobReplay) IAllreduceMaxInt32(int64, int32) int64 { return o.next(1).value }
func (o *oobReplay) PollOOB(int64) (bool, int32) {
	a := o.next(2)
	return a.done, int32(a.value)
}

// recording is what set-up hands the measured phase: every rank's
// stream and the oracle trace bytes the live tracers finalized to.
type recording struct {
	streams []*stream
	calls   int
	oracle  []byte
}

func (r *recording) bytes() int {
	n := 0
	for _, s := range r.streams {
		n += s.bytes()
	}
	return n
}

// record runs the application once on the simulator with Verify on,
// finalizes the live tracers in memory, and checks the result is
// lossless. The simulator world and the live tracers are garbage when
// it returns.
func record(app string, ranks, iters int, seed int64, lossy bool) (*recording, error) {
	body, err := appBody(app, iters, ranks)
	if err != nil {
		return nil, err
	}
	opts := tracerOpts{Verify: true}
	if lossy {
		opts.TimingMode = timingLossy
	}
	rec := &recording{streams: make([]*stream, ranks)}
	tracers := make([]*tracer, ranks)
	ics := make([]interceptor, ranks)
	for i := range tracers {
		rec.streams[i] = &stream{}
		tracers[i] = newTracer(i, nil, opts)
		ics[i] = &tee{s: rec.streams[i], next: tracers[i]}
	}
	err = simRun(ranks, seed, ics, func(p *simProc) {
		r := procRank(p)
		bindOOB(tracers[r], &oobTee{s: rec.streams[r], next: p})
		body(p)
	})
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", app, err)
	}
	for _, s := range rec.streams {
		rec.calls += s.calls
	}
	f := finalizeInMemory(tracers)
	if err := verifyLossless(f, tracers, lossy); err != nil {
		return nil, fmt.Errorf("record %s: %w", app, err)
	}
	if rec.oracle, err = traceWrite(f); err != nil {
		return nil, fmt.Errorf("record %s: %w", app, err)
	}
	return rec, nil
}

// replayInto feeds one rank's stream to ic through the interceptor
// interface, as the simulator does. Rebuilding the argument slice costs
// a few ns per call inside the timed loop; it stands where the
// simulator builds its CallRecord, and harness.replay_ns_per_call
// measures it with an interceptor that does nothing.
func replayInto(s *stream, rank int, ic interceptor) {
	rec := callRecord{Rank: rank}
	scratch := make([]argValue, s.maxArgs)
	for i := range s.events {
		e := &s.events[i]
		switch e.kind {
		case evCall:
			rec.Func, rec.TStart, rec.TEnd = e.fn, e.a, e.b
			rec.Args = scratch[:e.argN]
			for j, a := range s.args[e.argOff : e.argOff+uint32(e.argN)] {
				v := argValue{Kind: paramKind(a.kind), I: a.i}
				if a.flags&hasArr != 0 {
					v.Arr = s.ints[a.off : a.off+a.n : a.off+a.n]
				}
				if a.flags&hasStr != 0 {
					v.S = s.strs[a.off]
				}
				rec.Args[j] = v
			}
			ic.Pre(&rec)
			ic.Post(&rec)
		case evAlloc:
			ic.MemAlloc(uint64(e.a), uint64(e.b), e.dev)
		case evFree:
			ic.MemFree(uint64(e.a))
		}
	}
}

// nopInterceptor takes events and does nothing: the harness's own share
// of a replay loop.
type nopInterceptor struct{}

func (nopInterceptor) Pre(*callRecord)                {}
func (nopInterceptor) Post(*callRecord)               {}
func (nopInterceptor) MemAlloc(uint64, uint64, int32) {}
func (nopInterceptor) MemFree(uint64)                 {}
