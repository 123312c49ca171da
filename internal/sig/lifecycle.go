package sig

import (
	"strings"
	"time"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// funcFacts is what the encoder knows about one function beyond its
// arguments' kinds. The slots are parameter indices, -1 for none.
type funcFacts struct {
	comm       int8   // first communicator parameter: the caller's rank in it is the base of relative ranks
	peers      uint16 // bit i: parameter i is a peer rank (source/destination, encoded relative) rather than a root
	newRequest int8   // the request the call creates
	persistent bool   // ... which keeps its id across completions until MPI_Request_free
	newComm    int8   // the communicator a blocking call creates (MPI_Comm_idup's is agreed in the background)
	newType    int8
	newGroup   int8
	newOp      int8
}

// facts is read off mpispec.Spec once: an object-kind parameter with
// direction Out is the object the call creates.
var facts = func() (t [mpispec.NumFuncs]funcFacts) {
	for f := range t {
		ff := funcFacts{comm: -1, newRequest: -1, newComm: -1, newType: -1, newGroup: -1, newOp: -1}
		for i, p := range mpispec.Spec[f].Params {
			slot, out := int8(i), p.Dir == mpispec.Out
			switch p.Kind {
			case mpispec.KRank:
				switch p.Name {
				case "dest", "source", "rank_source", "rank_dest":
					ff.peers |= 1 << i
				}
			case mpispec.KComm:
				if out {
					ff.newComm = slot
				} else if ff.comm < 0 {
					ff.comm = slot
				}
			case mpispec.KRequest:
				if out {
					ff.newRequest = slot
				}
			case mpispec.KDatatype:
				if out {
					ff.newType = slot
				}
			case mpispec.KGroup:
				if out {
					ff.newGroup = slot
				}
			case mpispec.KOp:
				if out {
					ff.newOp = slot
				}
			}
		}
		if ff.newRequest >= 0 {
			ff.newComm = -1
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
	if i := ff.newComm; i >= 0 {
		h := rec.Args[i].I
		if h != 0 {
			if _, known := e.commIDs[h]; !known {
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
				newID++
				e.commIDs[h] = newID
				if newID > e.maxCommID {
					e.maxCommID = newID
				}
			}
		}
	}
	if rec.Func == mpispec.FCommIdup {
		h := rec.Args[1].I
		if h != 0 && e.oob != nil {
			tok := e.oob.IAllreduceMaxInt32(rec.Args[0].I, e.maxCommID)
			e.pending = append(e.pending, pendingComm{token: tok, commHandle: h})
		}
	}
	if i := ff.newType; i >= 0 {
		if h := rec.Args[i].I; h != 0 {
			if _, known := e.typeIDs[h]; !known {
				setID(&e.typeIDs, h, e.typePool.Get()+predefTypeCount)
			}
		}
	}
	if i := ff.newGroup; i >= 0 {
		if h := rec.Args[i].I; h != 0 {
			if _, known := e.groupIDs[h]; !known {
				setID(&e.groupIDs, h, e.groupPool.Get())
			}
		}
	}
	if i := ff.newOp; i >= 0 {
		if h := rec.Args[i].I; h != 0 {
			if _, known := e.opIDs[h]; !known {
				setID(&e.opIDs, h, e.opPool.Get()+predefOpCount)
			}
		}
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
func (e *Encoder) releaseCompletedObjects(rec *mpispec.CallRecord) {
	args := rec.Args
	switch rec.Func {
	case mpispec.FWait:
		e.releaseRequest(args[0].I, false)
	case mpispec.FTest:
		if args[1].I != 0 {
			e.releaseRequest(args[0].I, false)
		}
	case mpispec.FWaitall:
		for _, h := range args[1].Arr {
			e.releaseRequest(h, false)
		}
	case mpispec.FWaitany:
		if idx := args[2].I; idx >= 0 && int(idx) < len(args[1].Arr) {
			e.releaseRequest(args[1].Arr[idx], false)
		}
	case mpispec.FWaitsome:
		for _, idx := range args[3].Arr {
			if idx >= 0 && int(idx) < len(args[1].Arr) {
				e.releaseRequest(args[1].Arr[idx], false)
			}
		}
	case mpispec.FTestall:
		if args[2].I != 0 {
			for _, h := range args[1].Arr {
				e.releaseRequest(h, false)
			}
		}
	case mpispec.FTestany:
		if args[3].I != 0 {
			if idx := args[2].I; idx >= 0 && int(idx) < len(args[1].Arr) {
				e.releaseRequest(args[1].Arr[idx], false)
			}
		}
	case mpispec.FTestsome:
		for _, idx := range args[3].Arr {
			if idx >= 0 && int(idx) < len(args[1].Arr) {
				e.releaseRequest(args[1].Arr[idx], false)
			}
		}
	case mpispec.FRequestFree:
		e.releaseRequest(args[0].I, true)
	case mpispec.FTypeFree:
		if h := args[0].I; h != 0 {
			if id, ok := e.typeIDs[h]; ok {
				e.typePool.Put(id - predefTypeCount)
				delete(e.typeIDs, h)
			}
		}
	case mpispec.FGroupFree:
		if h := args[0].I; h != 0 {
			if id, ok := e.groupIDs[h]; ok {
				e.groupPool.Put(id)
				delete(e.groupIDs, h)
			}
		}
	case mpispec.FOpFree:
		if h := args[0].I; h != 0 {
			if id, ok := e.opIDs[h]; ok {
				e.opPool.Put(id - predefOpCount)
				delete(e.opIDs, h)
			}
		}
	}
	// Communicator ids are monotonic (group-max + 1) and never reused,
	// so MPI_Comm_free needs no pool action.
}

// pollPending resolves communicator ids whose non-blocking agreement
// (MPI_Comm_idup) has completed. Called from every encode, which
// covers the paper's "check in Wait/Test epilogues" behaviour.
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
		newID := groupMax + 1
		e.commIDs[pc.commHandle] = newID
		if newID > e.maxCommID {
			e.maxCommID = newID
		}
	}
	e.pending = rest
}
