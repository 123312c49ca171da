package sig

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// ablations are the option sets every differential comparison runs under.
var ablations = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"NoRelativeRanks", Options{NoRelativeRanks: true}},
	{"SharedRequestPool", Options{SharedRequestPool: true}},
	{"NoPointerTracking", Options{NoPointerTracking: true}},
}

// event is one interception of a recorded rank: a call (rec != nil), an
// allocation (size > 0) or a free.
type event struct {
	rec        *mpispec.CallRecord
	addr, size uint64
	dev        int32
}

// oobAnswer is one answer the simulator gave the live encoder.
type oobAnswer struct {
	kind  uint8 // 0 AllreduceMaxInt32, 1 IAllreduceMaxInt32, 2 PollOOB
	done  bool
	value int64
}

// stream is everything one rank's encoder saw, in order.
type stream struct {
	events []event
	oob    []oobAnswer
}

// recorder is the interceptor of the recording run: it keeps a deep
// copy of each event and drives a live Encoder so that the out-of-band
// questions get asked, and their answers logged through oobTee.
type recorder struct {
	s   *stream
	enc *Encoder
}

func (r *recorder) Pre(*mpispec.CallRecord) {}
func (r *recorder) Post(rec *mpispec.CallRecord) {
	cp := *rec
	cp.Args = make([]mpispec.Value, len(rec.Args))
	for i, a := range rec.Args {
		a.Arr = append([]int64(nil), a.Arr...)
		cp.Args[i] = a
	}
	r.s.events = append(r.s.events, event{rec: &cp})
	r.enc.Encode(rec)
}
func (r *recorder) MemAlloc(addr, size uint64, dev int32) {
	r.s.events = append(r.s.events, event{addr: addr, size: size, dev: dev})
	r.enc.MemAlloc(addr, size, dev)
}
func (r *recorder) MemFree(addr uint64) {
	r.s.events = append(r.s.events, event{addr: addr})
	r.enc.MemFree(addr)
}

type oobTee struct {
	s    *stream
	next mpispec.OOB
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

// oobReplay answers an encoder from the log, in order. A question of
// another kind than the logged one is remembered as the replay's error.
type oobReplay struct {
	log []oobAnswer
	pos int
	err error
}

func (o *oobReplay) next(kind uint8) oobAnswer {
	if o.pos >= len(o.log) || o.log[o.pos].kind != kind {
		if o.err == nil {
			o.err = fmt.Errorf("out-of-band question %d is of kind %d, the log disagrees", o.pos, kind)
		}
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

// compareEncoders drives the one-pass encoder and the two-pass
// reference from one rank's stream, each with its own out-of-band
// layer, and fails on the first call whose signature bytes differ, on a
// differing pool count or on a differing number of pending agreements.
func compareEncoders(t testing.TB, name string, rank int, s *stream, opts Options, oobNew, oobRef mpispec.OOB) {
	t.Helper()
	enc, ref := NewEncoderOpts(rank, oobNew, opts), newRefEncoder(rank, oobRef, opts)
	var got, want []byte
	calls := 0
	for _, ev := range s.events {
		switch {
		case ev.rec != nil:
			got, want = enc.EncodeTo(got[:0], ev.rec), ref.EncodeTo(want[:0], ev.rec)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s rank %d call %d (%s):\n got %x\nwant %x", name, rank, calls,
					ev.rec.Func.Name(), got, want)
			}
			calls++
		case ev.size > 0:
			enc.MemAlloc(ev.addr, ev.size, ev.dev)
			ref.MemAlloc(ev.addr, ev.size, ev.dev)
		default:
			enc.MemFree(ev.addr)
			ref.MemFree(ev.addr)
		}
	}
	if g, w := enc.NumRequestPools(), ref.NumRequestPools(); g != w {
		t.Fatalf("%s rank %d: %d request pools, reference has %d", name, rank, g, w)
	}
	if g, w := enc.PendingComms(), len(ref.pending); g != w {
		t.Fatalf("%s rank %d: %d pending comms, reference has %d", name, rank, g, w)
	}
}

// differential is compareEncoders on a recorded stream: both encoders
// are answered from the recording's out-of-band log and must ask
// exactly what the recording run asked.
func differential(t testing.TB, name string, rank int, s *stream, opts Options) {
	t.Helper()
	oobNew, oobRef := &oobReplay{log: s.oob}, &oobReplay{log: s.oob}
	compareEncoders(t, name, rank, s, opts, oobNew, oobRef)
	for _, o := range []*oobReplay{oobNew, oobRef} {
		if o.err != nil {
			t.Fatalf("%s rank %d: %v", name, rank, o.err)
		}
		if o.pos != len(s.oob) {
			t.Fatalf("%s rank %d: %d of %d out-of-band answers used", name, rank, o.pos, len(s.oob))
		}
	}
}

// record runs body on procs simulated ranks and returns what each
// rank's encoder saw.
func record(t *testing.T, procs int, body func(*mpi.Proc)) []*stream {
	t.Helper()
	streams := make([]*stream, procs)
	recs := make([]*recorder, procs)
	ics := make([]mpispec.Interceptor, procs)
	for r := range streams {
		streams[r] = &stream{}
		recs[r] = &recorder{s: streams[r], enc: NewEncoder(r, nil)}
		ics[r] = recs[r]
	}
	err := mpi.RunOpt(procs, mpi.Options{Seed: 3, Interceptors: ics}, func(p *mpi.Proc) {
		recs[p.Rank()].enc.SetOOB(&oobTee{s: streams[p.Rank()], next: p})
		body(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return streams
}

// TestEncodeDifferentialVsReference replays every rank of every
// registered application skeleton (stencils, FLASH, NPB, MILC, OSU)
// through both encoders under the default options and each ablation.
func TestEncodeDifferentialVsReference(t *testing.T) {
	const procs = 16
	iters := 12
	if testing.Short() {
		iters = 3
	}
	for _, info := range workloads.List() {
		body, err := workloads.Get(info.Name, iters, procs)
		if err != nil {
			t.Fatal(err)
		}
		streams := record(t, procs, body)
		calls := 0
		for rank, s := range streams {
			calls += len(s.events)
			for _, ab := range ablations {
				differential(t, info.Name+"/"+ab.name, rank, s, ab.opts)
			}
		}
		if calls == 0 {
			t.Fatalf("%s recorded nothing", info.Name)
		}
	}
}
