package sig

import "github.com/hpcrepro/pilgrim/internal/mpispec"

// requestCreatingArg returns the index of the request output argument
// for calls that create a request, or -1.
func requestCreatingArg(f mpispec.FuncID) int {
	switch f {
	case mpispec.FIsend, mpispec.FIbsend, mpispec.FIssend, mpispec.FIrsend, mpispec.FIrecv,
		mpispec.FSendInit, mpispec.FBsendInit, mpispec.FSsendInit, mpispec.FRsendInit, mpispec.FRecvInit:
		return 6
	case mpispec.FIbarrier:
		return 1
	case mpispec.FCommIdup:
		return 2
	case mpispec.FIbcast:
		return 5
	case mpispec.FIgather, mpispec.FIscatter:
		return 8
	case mpispec.FIallgather, mpispec.FIalltoall:
		return 7
	case mpispec.FIreduce:
		return 7
	case mpispec.FIallreduce:
		return 6
	}
	return -1
}

// isPersistentInit reports whether the call creates a persistent
// request, whose id survives completions until MPI_Request_free.
func isPersistentInit(f mpispec.FuncID) bool {
	switch f {
	case mpispec.FSendInit, mpispec.FBsendInit, mpispec.FSsendInit, mpispec.FRsendInit, mpispec.FRecvInit:
		return true
	}
	return false
}

// commCreatingArg returns the index of the newcomm output argument for
// blocking communicator-creating calls, or -1.
func commCreatingArg(f mpispec.FuncID) int {
	switch f {
	case mpispec.FCommDup:
		return 1
	case mpispec.FCommSplit, mpispec.FCommSplitType:
		return 3
	case mpispec.FCommCreate:
		return 2
	case mpispec.FCartCreate:
		return 5
	case mpispec.FCartSub, mpispec.FIntercommMerge:
		return 2
	case mpispec.FIntercommCreate:
		return 5
	}
	return -1
}

// typeCreatingArg returns the newtype output argument index, or -1.
func typeCreatingArg(f mpispec.FuncID) int {
	switch f {
	case mpispec.FTypeContiguous:
		return 2
	case mpispec.FTypeVector, mpispec.FTypeIndexed, mpispec.FTypeCreateStruct:
		return 4
	case mpispec.FTypeDup:
		return 1
	}
	return -1
}

// groupCreatingArgs returns the new-group output argument indices.
func groupCreatingArgs(f mpispec.FuncID) []int {
	switch f {
	case mpispec.FCommGroup:
		return []int{1}
	case mpispec.FGroupIncl, mpispec.FGroupExcl:
		return []int{3}
	case mpispec.FGroupUnion, mpispec.FGroupIntersection, mpispec.FGroupDifference:
		return []int{2}
	}
	return nil
}

// assignCreatedObjects performs the id assignment implied by the call,
// including the group-wide all-reduce for new communicators (§3.3.1).
func (e *Encoder) assignCreatedObjects(rec *mpispec.CallRecord) {
	if i := commCreatingArg(rec.Func); i >= 0 {
		h := rec.Args[i].I
		if h != 0 {
			if _, known := e.commIDs[h]; !known {
				newID := e.maxCommID
				if e.oob != nil {
					// Step 1+2: group-wide max of locally assigned ids.
					newID = e.oob.AllreduceMaxInt32(h, e.maxCommID)
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
	if i := typeCreatingArg(rec.Func); i >= 0 {
		if h := rec.Args[i].I; h != 0 {
			if _, known := e.typeIDs[h]; !known {
				e.typeIDs[h] = e.typePool.Get() + predefTypeCount
			}
		}
	}
	for _, i := range groupCreatingArgs(rec.Func) {
		if h := rec.Args[i].I; h != 0 {
			if _, known := e.groupIDs[h]; !known {
				e.groupIDs[h] = e.groupPool.Get()
			}
		}
	}
	if rec.Func == mpispec.FOpCreate {
		if h := rec.Args[2].I; h != 0 {
			if _, known := e.opIDs[h]; !known {
				e.opIDs[h] = e.opPool.Get() + predefOpCount
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

// PendingComms returns how many communicator-id agreements are still
// in flight (diagnostics).
func (e *Encoder) PendingComms() int { return len(e.pending) }
