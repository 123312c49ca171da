package mpi

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// Request is a non-blocking operation handle. Persistent requests
// (from *_init) stay allocated across Start/Wait cycles.
type Request struct {
	proc   *Proc
	handle int64

	// guarded by proc.mu
	done      bool
	status    Status
	availAt   int64 // virtual time at which the result is available
	cancelled bool
	active    bool // persistent: between Start and completion

	persistent bool
	restart    func(r *Request) // persistent operation body

	// recv bookkeeping so Cancel can withdraw the post
	post *recvPost

	// target describes what completing this request depends on, for
	// the deadlock report when the owner blocks in a Wait.
	target *waitTarget
}

// Handle returns the runtime handle of the request.
func (r *Request) Handle() int64 { return r.handle }

// newRequest allocates a request owned by p.
func (p *Proc) newRequest() *Request {
	return &Request{proc: p, handle: p.newHandle()}
}

// complete marks the request done and wakes the owner's waiters.
// Called with any rank's goroutine.
func (r *Request) complete(st Status, availAt int64) {
	p := r.proc
	p.world.progress.Add(1)
	p.mu.Lock()
	r.done = true
	r.status = st
	r.availAt = availAt
	r.active = false
	p.cond.Broadcast()
	p.mu.Unlock()
}

// isDone reports completion status under the owner's lock.
func (r *Request) isDone() bool {
	r.proc.mu.Lock()
	defer r.proc.mu.Unlock()
	return r.done
}

// consume finalizes a completed request: non-persistent requests are
// deactivated (the MPI library frees them); persistent ones are reset
// to inactive. Returns the status. Caller holds no locks.
func (r *Request) consume() Status {
	p := r.proc
	p.mu.Lock()
	st := r.status
	avail := r.availAt
	r.done = false
	if !r.persistent {
		r.post = nil
		r.restart = nil
	}
	p.mu.Unlock()
	p.raiseClock(avail)
	return st
}

// waitDone blocks until the request completes. Runs on the owning
// rank's goroutine: it registers the wait in the deadlock registry and
// unwinds (panicking jobRevoked) if the job halts meanwhile.
func (r *Request) waitDone() {
	p := r.proc
	defer p.world.setBlocked(p, r.target)()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !r.done {
		p.world.checkRevoked()
		p.cond.Wait()
	}
}

// anyTarget is the wait target of a Waitany/Waitsome over rs: the
// union of the pending requests' targets, evaluated at report time.
func anyTarget(p *Proc, rs []*Request) *waitTarget {
	return &waitTarget{
		detail: fmt.Sprintf("%d requests", len(rs)),
		peers: func() []int {
			p.mu.Lock()
			defer p.mu.Unlock()
			seen := map[int]bool{}
			var out []int
			for _, r := range rs {
				if r == nil || r.done || r.target == nil || r.target.peers == nil {
					continue
				}
				for _, wr := range r.target.peers() {
					if !seen[wr] {
						seen[wr] = true
						out = append(out, wr)
					}
				}
			}
			return out
		},
	}
}

// waitAnyDone blocks until at least one request in rs is done and
// returns its index. Nil or inactive requests are skipped; if all are
// nil/inactive, returns -1 immediately (MPI returns MPI_UNDEFINED).
func waitAnyDone(p *Proc, rs []*Request) int {
	defer p.world.setBlocked(p, anyTarget(p, rs))()
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		anyLive := false
		for i, r := range rs {
			if r == nil {
				continue
			}
			if r.done {
				return i
			}
			if !r.persistent || r.active {
				anyLive = true
			}
		}
		if !anyLive {
			return -1
		}
		p.world.checkRevoked()
		p.cond.Wait()
	}
}

// --- Public completion calls -------------------------------------------------

// completion runs the Wait/Test call f over rs (a one-request array
// for MPI_Wait and MPI_Test) and records what it completed where f's
// completion descriptor says. It copies the status of the one request
// completed to status, or the statuses the call reports to statuses,
// and returns the completed slots of an any or some call and whether
// the call completed: a Test call may complete nothing, as may an any
// call over no active request.
func (p *Proc) completion(f mpispec.FuncID, rs []*Request, status *Status, statuses []Status) (idx []int, done bool) {
	c := mpispec.CompletionOf(f)
	args := make([]Value, len(mpispec.Spec[f].Params))
	for i, prm := range mpispec.Spec[f].Params {
		args[i].Kind = prm.Kind
	}
	if c.Request >= 0 {
		args[c.Request] = vReq(rs[0])
	} else {
		args[c.Count], args[c.Requests] = vInt(len(rs)), vReqArray(rs)
	}
	if c.Status >= 0 {
		args[c.Status] = vStatus()
	}
	var sts []Status
	p.icall(f, args, func() {
		if c.Every() {
			if done = c.Blocking || allDone(rs); done {
				sts = make([]Status, len(rs))
				for i, r := range rs {
					if r != nil {
						if c.Blocking {
							r.waitDone()
						}
						sts[i] = r.consume()
					}
				}
			}
		} else {
			if !c.Blocking || waitAnyDone(p, rs) >= 0 {
				for i, r := range rs {
					if r != nil && r.isDone() {
						idx, sts = append(idx, i), append(sts, r.consume())
						if c.Index >= 0 {
							break
						}
					}
				}
			}
			// A call with an indices array reports it, even empty.
			done = len(idx) > 0 || c.Indices >= 0
		}
		if c.Flag >= 0 {
			args[c.Flag].I = b2i(done)
		}
		if c.Index >= 0 {
			args[c.Index].I = int64(first(idx))
		}
		if c.Indices >= 0 {
			args[c.Outcount].I = int64(len(idx))
			setIndexArray(&args[c.Indices], idx)
		}
		if done && c.Status >= 0 {
			setStatus(&args[c.Status], sts[0])
		}
		if done && c.Statuses >= 0 {
			setStatArray(&args[c.Statuses], sts)
		}
	})
	if status != nil && len(sts) > 0 {
		*status = sts[0]
	}
	copy(statuses, sts)
	return idx, done
}

// allDone reports whether every request in rs is nil or complete.
func allDone(rs []*Request) bool {
	for _, r := range rs {
		if r != nil && !r.isDone() {
			return false
		}
	}
	return true
}

// first returns the first completed slot, or Undefined.
func first(idx []int) int {
	if len(idx) == 0 {
		return Undefined
	}
	return idx[0]
}

// Wait blocks until the request completes; status may be nil
// (MPI_STATUS_IGNORE).
func (p *Proc) Wait(r *Request, status *Status) error {
	if r == nil {
		return fmt.Errorf("mpi: Wait on nil request")
	}
	p.completion(mpispec.FWait, []*Request{r}, status, nil)
	return nil
}

// Test checks for completion without blocking.
func (p *Proc) Test(r *Request, status *Status) (bool, error) {
	if r == nil {
		return false, fmt.Errorf("mpi: Test on nil request")
	}
	_, flag := p.completion(mpispec.FTest, []*Request{r}, status, nil)
	return flag, nil
}

// Waitall blocks until every request completes.
func (p *Proc) Waitall(rs []*Request, statuses []Status) error {
	p.completion(mpispec.FWaitall, rs, nil, statuses)
	return nil
}

// Waitany blocks until one request completes; returns its index, or
// Undefined if no active request exists.
func (p *Proc) Waitany(rs []*Request, status *Status) (int, error) {
	idx, _ := p.completion(mpispec.FWaitany, rs, status, nil)
	return first(idx), nil
}

// Waitsome blocks until at least one request completes and returns the
// indices of all completed ones (or nil if none active).
func (p *Proc) Waitsome(rs []*Request, statuses []Status) ([]int, error) {
	idx, _ := p.completion(mpispec.FWaitsome, rs, nil, statuses)
	return idx, nil
}

// Testall reports whether all requests are complete, consuming them if
// so.
func (p *Proc) Testall(rs []*Request, statuses []Status) (bool, error) {
	_, all := p.completion(mpispec.FTestall, rs, nil, statuses)
	return all, nil
}

// Testany checks whether any request is complete.
func (p *Proc) Testany(rs []*Request, status *Status) (idx int, flag bool, err error) {
	slots, flag := p.completion(mpispec.FTestany, rs, status, nil)
	return first(slots), flag, nil
}

// Testsome returns the indices of currently completed requests
// (possibly empty), consuming them.
func (p *Proc) Testsome(rs []*Request, statuses []Status) ([]int, error) {
	idx, _ := p.completion(mpispec.FTestsome, rs, nil, statuses)
	return idx, nil
}

// RequestFree releases a request; an active operation still completes
// in the background (as in MPI).
func (p *Proc) RequestFree(r *Request) error {
	if r == nil {
		return fmt.Errorf("mpi: RequestFree on nil request")
	}
	args := []Value{vReq(r)}
	p.icall(mpispec.FRequestFree, args, func() {
		p.mu.Lock()
		r.restart = nil
		r.persistent = false
		p.mu.Unlock()
	})
	return nil
}

// RequestGetStatus checks completion without consuming the request.
func (p *Proc) RequestGetStatus(r *Request, status *Status) (bool, error) {
	if r == nil {
		return false, fmt.Errorf("mpi: RequestGetStatus on nil request")
	}
	args := []Value{vReq(r), vInt(0), vStatus()}
	var flag bool
	var st Status
	p.icall(mpispec.FRequestGetStatus, args, func() {
		p.mu.Lock()
		flag = r.done
		st = r.status
		p.mu.Unlock()
		args[1].I = b2i(flag)
		if flag {
			setStatus(&args[2], st)
		}
	})
	if status != nil && flag {
		*status = st
	}
	return flag, nil
}

// Cancel attempts to cancel a pending receive (sends are not
// cancellable in this simulator, as in most MPI implementations).
func (p *Proc) Cancel(r *Request) error {
	if r == nil {
		return fmt.Errorf("mpi: Cancel on nil request")
	}
	args := []Value{vReq(r)}
	p.icall(mpispec.FCancel, args, func() {
		if r.post != nil {
			if r.post.withdraw() {
				r.proc.mu.Lock()
				r.done = true
				r.cancelled = true
				r.status = Status{Source: Undefined, Tag: Undefined, Cancelled: true}
				r.proc.cond.Broadcast()
				r.proc.mu.Unlock()
			}
		}
	})
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
