package mpi

import "fmt"

// Out-of-band collectives: the PMPI-level operations a tracer may
// perform for its own bookkeeping without the calls being intercepted
// (Pilgrim §3.3.1 issues a PMPI all-reduce to agree on communicator
// symbolic ids). They use a sequence space separate from application
// collectives so they can never be confused with traced operations.

// AllreduceMaxInt32 performs a blocking max-allreduce of v over the
// communicator identified by commHandle. For inter-communicators the
// reduction spans the union of both groups (the merge trick of
// §3.3.1). Implements mpispec.OOB.
func (p *Proc) AllreduceMaxInt32(commHandle int64, v int32) int32 {
	c := p.lookupComm(commHandle)
	if c == nil {
		panic(fmt.Sprintf("mpi: OOB allreduce on unknown comm handle %d (rank %d)", commHandle, p.rank))
	}
	return p.oobAllreduceMax(c, v, true)
}

// oobAllreduceMax blocks in a rendezvous over c's members. register
// must be true only when called on the rank's own goroutine (the
// deadlock registry holds one entry per rank); the non-blocking
// variant runs on a background goroutine and passes false.
func (p *Proc) oobAllreduceMax(c *Comm, v int32, register bool) int32 {
	need := len(c.group)
	if c.remote != nil {
		need += len(c.remote)
	}
	seq := c.oobSeq.Add(1)
	key := collKey{ctx: c.ctx, seq: seq, oob: true}
	if register {
		members := make([]int, 0, need)
		members = append(members, c.group...)
		members = append(members, c.remote...)
		defer p.world.setBlocked(p, collTarget(p.world, key, members, p.rank, c.name+" (OOB)", true))()
	}
	res, _ := p.world.rendezvous(key, need, p.rank, p.clock.Load(), v, func(m map[int]any) any {
		best := int32(-1 << 31)
		for _, x := range m {
			if xv := x.(int32); xv > best {
				best = xv
			}
		}
		return best
	})
	return res.(int32)
}

// IAllreduceMaxInt32 starts a non-blocking OOB max-allreduce and
// returns a token for PollOOB. Implements mpispec.OOB.
func (p *Proc) IAllreduceMaxInt32(commHandle int64, v int32) int64 {
	c := p.lookupComm(commHandle)
	if c == nil {
		panic(fmt.Sprintf("mpi: OOB iallreduce on unknown comm handle %d (rank %d)", commHandle, p.rank))
	}
	p.oobMu.Lock()
	p.oobSeq++
	token := p.oobSeq
	op := &oobOp{}
	p.oobPending[token] = op
	p.oobMu.Unlock()
	p.goBackground(func() {
		r := p.oobAllreduceMax(c, v, false)
		p.oobMu.Lock()
		op.result = r
		op.done = true
		p.oobMu.Unlock()
		// Wake any tracer polling from a Wait* epilogue.
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	return token
}

// PollOOB reports completion of a non-blocking OOB operation.
// Implements mpispec.OOB.
func (p *Proc) PollOOB(token int64) (bool, int32) {
	p.oobMu.Lock()
	defer p.oobMu.Unlock()
	op := p.oobPending[token]
	if op == nil {
		return false, 0
	}
	if op.done {
		delete(p.oobPending, token)
		return true, op.result
	}
	return false, 0
}
