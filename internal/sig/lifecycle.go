package sig

import (
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// funcFacts is what the encoder knows about one function beyond its
// arguments' kinds. The slots are parameter indices, -1 for none.
type funcFacts struct {
	comm       int8                // first communicator parameter: the caller's rank in it is the base of relative ranks
	peers      uint16              // bit i: parameter i is a peer rank (source/destination, encoded relative) rather than a root
	newRequest int8                // the request the call creates
	persistent bool                // ... which keeps its id across completions until MPI_Request_free
	object     *mpispec.Object     // the object the call creates or frees
	completion *mpispec.Completion // the requests a Wait*/Test* call completes
}

// facts is read off mpispec.Spec once; the object comes from
// mpispec.ObjectOf.
var facts = func() (t [mpispec.NumFuncs]funcFacts) {
	for f := range t {
		ff := funcFacts{comm: -1, newRequest: -1,
			object: mpispec.ObjectOf(mpispec.FuncID(f)), completion: mpispec.CompletionOf(mpispec.FuncID(f))}
		for i, p := range mpispec.Spec[f].Params {
			switch {
			case p.Kind == mpispec.KRank:
				switch p.Name {
				case "dest", "source", "rank_source", "rank_dest":
					ff.peers |= 1 << i
				}
			case p.Kind == mpispec.KComm && p.Dir != mpispec.Out && ff.comm < 0:
				ff.comm = int8(i)
			case p.Kind == mpispec.KRequest && p.Dir == mpispec.Out:
				ff.newRequest = int8(i)
			}
		}
		if ff.newRequest >= 0 {
			// Persistence is not a parameter property; MPI names the
			// calls that make persistent requests MPI_*_init.
			ff.persistent = strings.HasSuffix(mpispec.Spec[f].Name, "_init")
		}
		t[f] = ff
	}
	return t
}()

// assignCreatedObjects performs the id assignment implied by the call,
// including the group-wide all-reduce for new communicators (§3.3.1).
func (e *Encoder) assignCreatedObjects(rec *mpispec.CallRecord, ff *funcFacts) {
	o := ff.object
	if o == nil || o.Free {
		return
	}
	h := rec.Args[o.Param].I
	switch {
	case h == 0:
	case rec.Func == mpispec.FCommIdup:
		// The id is agreed in the background; the completion of the
		// idup's request waits for it.
		if e.oob != nil {
			tok := e.oob.IAllreduceMaxInt32(rec.Args[0].I, e.maxCommID)
			e.pending = append(e.pending, pendingComm{token: tok, commHandle: h, request: rec.Args[2].I})
		}
	case o.Kind != mpispec.KComm:
		e.createObj(o.Kind, h)
	default:
		if _, known := e.commID(h); known {
			return
		}
		newID := e.maxCommID
		if e.oob != nil {
			// Step 1+2: group-wide max of locally assigned ids. It
			// blocks until the slowest member arrives, and is timed
			// here because the tracer's sampled clock cannot be
			// (OOBWaitNs).
			w0 := time.Now()
			newID = e.oob.AllreduceMaxInt32(h, e.maxCommID)
			e.oobWaitNs += time.Since(w0).Nanoseconds()
		}
		// Step 3: one plus the group max.
		e.resolve(h, newID)
	}
}

// releaseRequest recycles a completed (or freed) request's id into its
// origin pool; persistent requests keep their id across completions.
func (e *Encoder) releaseRequest(h int64, evenPersistent bool) {
	ent, ok := e.reqIDs[h]
	if !ok {
		return
	}
	if ent.persistent && !evenPersistent {
		return
	}
	ent.pool.Put(ent.id)
	delete(e.reqIDs, h)
}

// releaseCompletedObjects recycles ids after the epilogue: requests
// completed by Wait*/Test*, and objects destroyed by *_free calls.
func (e *Encoder) releaseCompletedObjects(rec *mpispec.CallRecord, ff *funcFacts) {
	if c := ff.completion; c != nil {
		c.Slots(rec.Arg, func(h int64, _, _ int) { e.complete(h) })
		return
	}
	if rec.Func == mpispec.FRequestFree {
		e.releaseRequest(rec.Args[0].I, true)
	}
	// Communicator ids are monotonic (group-max + 1) and never reused,
	// so MPI_Comm_free needs no pool action.
	if o := ff.object; o != nil && o.Free && o.Kind != mpispec.KComm {
		e.freeObj(o.Kind, rec.Args[o.Param].I)
	}
}

// complete is the Wait*/Test* epilogue of request h. When h is an
// MPI_Comm_idup's, the application may use the new communicator from
// here on, so its id is agreed before the call returns.
func (e *Encoder) complete(h int64) {
	if len(e.pending) > 0 && h != 0 {
		e.awaitIdup(h)
	}
	e.releaseRequest(h, false)
}

// awaitIdup blocks until the agreement of the MPI_Comm_idup whose
// request is h lands, if it is pending. The agreement runs on another
// goroutine, so the poll yields in between; the wait counts in
// OOBWaitNs.
func (e *Encoder) awaitIdup(h int64) {
	i := slices.IndexFunc(e.pending, func(pc pendingComm) bool { return pc.request == h })
	if i < 0 {
		return
	}
	pc := e.pending[i]
	w0 := time.Now()
	done, groupMax := e.oob.PollOOB(pc.token)
	for !done {
		runtime.Gosched()
		done, groupMax = e.oob.PollOOB(pc.token)
	}
	e.oobWaitNs += time.Since(w0).Nanoseconds()
	e.pending = slices.Delete(e.pending, i, i+1)
	e.resolve(pc.commHandle, groupMax)
}

// pollPending resolves communicator ids whose non-blocking agreement
// (MPI_Comm_idup) has completed. Called from every encode, it resolves
// an idup whose request was freed rather than completed.
func (e *Encoder) pollPending() {
	if len(e.pending) == 0 || e.oob == nil {
		return
	}
	rest := e.pending[:0]
	for _, pc := range e.pending {
		done, groupMax := e.oob.PollOOB(pc.token)
		if !done {
			rest = append(rest, pc)
			continue
		}
		e.resolve(pc.commHandle, groupMax)
	}
	e.pending = rest
}

// resolve gives a communicator one plus its group's max id (§3.3.1).
func (e *Encoder) resolve(commHandle int64, groupMax int32) {
	newID := groupMax + 1
	if i, ok := e.commAt(commHandle); ok {
		e.comms[i].id = newID
	} else {
		e.comms = slices.Insert(e.comms, i, commID{commHandle, newID})
	}
	if newID > e.maxCommID {
		e.maxCommID = newID
	}
}
