package tracetest

import (
	"slices"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// Rank is one rank's hook calls, recorded from a simulated run, with
// the answers its communicator-id agreements got: enough to trace the
// rank again, into a fresh tracer, without the simulator.
type Rank struct {
	Calls   int // calls among the events
	events  []event
	answers []int32
}

// event is one hook call: a call (rec non-nil), or an allocation
// (size > 0) or a free of addr.
type event struct {
	rec        *mpispec.CallRecord
	addr, size uint64
	device     int32
}

// Record runs a workload skeleton on procs simulated ranks (seed 1)
// and records every rank. An encoder per rank asks the agreements the
// rank's tracer will ask; a rank that calls MPI_Comm_idup, whose
// agreement completes when the simulator's schedule says, panics.
func Record(app string, procs, iters int) ([]*Rank, error) {
	body, err := workloads.Get(app, iters, procs)
	if err != nil {
		return nil, err
	}
	ranks := make([]*Rank, procs)
	recs := make([]*recorder, procs)
	ics := make([]mpi.Interceptor, procs)
	for i := range ranks {
		ranks[i] = new(Rank)
		recs[i] = &recorder{rank: ranks[i]}
		recs[i].enc = sig.NewEncoder(i, recs[i])
		ics[i] = recs[i]
	}
	err = mpi.RunOpt(procs, mpi.Options{Seed: 1, Interceptors: ics}, func(p *mpi.Proc) {
		recs[p.Rank()].proc = p
		body(p)
	})
	return ranks, err
}

// recorder fills a Rank. It is its encoder's OOB: it asks the
// simulator and keeps the answers.
type recorder struct {
	rank *Rank
	enc  *sig.Encoder
	proc mpispec.OOB
	buf  []byte
}

func (r *recorder) Pre(*mpispec.CallRecord) {}

func (r *recorder) Post(rec *mpispec.CallRecord) {
	r.buf = r.enc.EncodeTo(r.buf[:0], rec)
	c := *rec
	c.Args = slices.Clone(rec.Args)
	for i := range c.Args {
		c.Args[i].Arr = slices.Clone(c.Args[i].Arr)
	}
	r.rank.events = append(r.rank.events, event{rec: &c})
	r.rank.Calls++
}

func (r *recorder) MemAlloc(addr, size uint64, device int32) {
	r.rank.events = append(r.rank.events, event{addr: addr, size: size, device: device})
}

func (r *recorder) MemFree(addr uint64) {
	r.rank.events = append(r.rank.events, event{addr: addr})
}

func (r *recorder) AllreduceMaxInt32(h int64, v int32) int32 {
	m := r.proc.AllreduceMaxInt32(h, v)
	r.rank.answers = append(r.rank.answers, m)
	return m
}

func (r *recorder) IAllreduceMaxInt32(int64, int32) int64 {
	panic("tracetest: MPI_Comm_idup is not recorded")
}

func (r *recorder) PollOOB(int64) (bool, int32) { panic("tracetest: MPI_Comm_idup is not recorded") }

// Replay traces the rank's hook calls into ic, in order.
func (r *Rank) Replay(ic mpispec.Interceptor) {
	for _, e := range r.events {
		switch {
		case e.rec != nil:
			ic.Post(e.rec)
		case e.size > 0:
			ic.MemAlloc(e.addr, e.size, e.device)
		default:
			ic.MemFree(e.addr)
		}
	}
}

// OOB returns the OOB of a tracer the rank is replayed into: it gives
// the recorded answers in order.
func (r *Rank) OOB() *Answers { return &Answers{answers: r.answers} }

// Answers is a replayed rank's OOB.
type Answers struct {
	answers []int32
	next    int
}

// Rewind makes the answers start over, for another replay.
func (a *Answers) Rewind() { a.next = 0 }

func (a *Answers) AllreduceMaxInt32(int64, int32) int32 {
	a.next++
	return a.answers[a.next-1]
}

func (a *Answers) IAllreduceMaxInt32(int64, int32) int64 { panic("tracetest: no idup was recorded") }
func (a *Answers) PollOOB(int64) (bool, int32)           { panic("tracetest: no idup was recorded") }
