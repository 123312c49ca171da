package sig

// The two-pass encoder this package shipped before EncodeTo did each
// call's work once, kept verbatim (types and helpers renamed ref*) as
// the oracle of TestEncodeDifferentialVsReference and
// FuzzEncodeDifferential: a request-creating call encodes its arguments
// once with the requests skipped (the §3.4.3 pool key) and once more
// for the signature, the per-function facts are hand-kept switches, and
// ids come from the heap-and-map pool below. The one-pass encoder must
// produce the same bytes call by call and the same number of pools.
//
// It also keeps the old MemAlloc, which leaks a segment id when an
// address is registered twice without a free in between; the
// differential drivers never do that. Its one later change is the one
// both encoders share: the Wait*/Test* that completes an MPI_Comm_idup
// resolves the new communicator's id (complete).

import (
	"container/heap"
	"encoding/binary"
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/avl"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// refPool is the smallest-free-id pool as a min-heap plus a set.
type refPool struct {
	free refIntHeap
	next int32
	used map[int32]bool
}

func newRefPool() *refPool { return &refPool{used: make(map[int32]bool)} }

func (p *refPool) Get() int32 {
	var id int32
	if p.free.Len() > 0 {
		id = heap.Pop(&p.free).(int32)
	} else {
		id = p.next
		p.next++
	}
	p.used[id] = true
	return id
}

func (p *refPool) Put(id int32) {
	if !p.used[id] {
		return
	}
	delete(p.used, id)
	heap.Push(&p.free, id)
}

type refIntHeap []int32

func (h refIntHeap) Len() int            { return len(h) }
func (h refIntHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h refIntHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refIntHeap) Push(x interface{}) { *h = append(*h, x.(int32)) }
func (h *refIntHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type refRequestPools struct {
	pools map[string]*refPool
}

func newRefRequestPools() *refRequestPools {
	return &refRequestPools{pools: make(map[string]*refPool)}
}

func (rp *refRequestPools) Pool(key []byte) *refPool {
	p := rp.pools[string(key)]
	if p == nil {
		p = newRefPool()
		rp.pools[string(key)] = p
	}
	return p
}

func (rp *refRequestPools) NumPools() int { return len(rp.pools) }

// refReqEntry tracks a live request's symbolic id and its origin pool.
type refReqEntry struct {
	id         int32
	pool       *refPool
	persistent bool
}

// The reference's own copy of the predefined-handle layout, so the
// oracle does not read the layout the encoder under test reads.
const (
	predefTypeHandleBase = 16
	predefTypeCount      = 16
	predefOpHandleBase   = 64
	predefOpCount        = 16
	worldHandle          = 1
	selfHandle           = 2
)

// refEncoder holds all per-process symbolic state. One refEncoder exists per
// traced rank.
type refEncoder struct {
	rank int
	oob  mpispec.OOB
	opts Options

	commIDs   map[int64]int32
	maxCommID int32

	typeIDs  map[int64]int32
	typePool *refPool

	groupIDs  map[int64]int32
	groupPool *refPool

	opIDs  map[int64]int32
	opPool *refPool

	reqIDs   map[int64]refReqEntry
	reqPools *refRequestPools

	mem       avl.Tree
	memPool   *refPool
	stackIDs  map[uint64]int32
	stackPool *refPool

	pending []pendingComm

	keyBuf []byte // scratch for §3.4.3 request-pool keys, reused between calls
}

// newRefEncoder is NewEncoder with ablation options.
func newRefEncoder(rank int, oob mpispec.OOB, opts Options) *refEncoder {
	e := &refEncoder{
		rank:      rank,
		oob:       oob,
		opts:      opts,
		commIDs:   map[int64]int32{worldHandle: 0, selfHandle: 1},
		maxCommID: 1,
		typeIDs:   map[int64]int32{},
		typePool:  newRefPool(),
		groupIDs:  map[int64]int32{},
		groupPool: newRefPool(),
		opIDs:     map[int64]int32{},
		opPool:    newRefPool(),
		reqIDs:    map[int64]refReqEntry{},
		reqPools:  newRefRequestPools(),
		stackIDs:  map[uint64]int32{},
		stackPool: newRefPool(),
		memPool:   newRefPool(),
	}
	return e
}

// MemAlloc registers an intercepted allocation (§3.3.3).
func (e *refEncoder) MemAlloc(addr, size uint64, device int32) {
	id := e.memPool.Get()
	e.mem.Insert(avl.Segment{Addr: addr, Size: size, ID: id, Device: device})
}

// MemFree releases an allocation and recycles its id.
func (e *refEncoder) MemFree(addr uint64) {
	if seg, ok := e.mem.Lookup(addr); ok {
		e.memPool.Put(seg.ID)
		e.mem.Delete(addr)
	}
}

// NumRequestPools returns how many distinct request signature pools
// exist (diagnostics for §3.4.3).
func (e *refEncoder) NumRequestPools() int { return e.reqPools.NumPools() }

// --- primitive emitters ------------------------------------------------------

func refPutUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

func refPutVarint(buf []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// commRankOf extracts the caller's rank within the call's communicator
// (carried in the KComm value), falling back to the world rank.
func (e *refEncoder) commRankOf(rec *mpispec.CallRecord) int64 {
	for _, a := range rec.Args {
		if a.Kind == mpispec.KComm && len(a.Arr) > 0 {
			return a.Arr[0]
		}
	}
	return int64(e.rank)
}

// refPeerParam reports whether a KRank parameter is a peer rank
// (source/destination: always relative) rather than a root-like rank
// (absolute, identical on all callers).
func refPeerParam(name string) bool {
	switch name {
	case "dest", "source", "rank_source", "rank_dest":
		return true
	}
	return false
}

func (e *refEncoder) encodeRank(buf []byte, v, base int64, peer bool) []byte {
	switch v {
	case procNull:
		return append(buf, selProcNull)
	case anySource:
		return append(buf, selAnySrc)
	case undefined:
		return append(buf, selUndef)
	}
	if peer && !e.opts.NoRelativeRanks {
		buf = append(buf, selRel)
		return refPutVarint(buf, v-base)
	}
	buf = append(buf, selAbs)
	return refPutVarint(buf, v)
}

func (e *refEncoder) encodeWindowed(buf []byte, v, base int64) []byte {
	switch v {
	case anyTag: // also matches Undefined for colors: same wire value is fine
		return append(buf, selAnyTag)
	}
	if d := v - base; d >= -relWindow && d <= relWindow && !e.opts.NoRelativeRanks {
		buf = append(buf, selRel)
		return refPutVarint(buf, d)
	}
	buf = append(buf, selAbs)
	return refPutVarint(buf, v)
}

func (e *refEncoder) encodePtr(buf []byte, addr uint64) []byte {
	if addr == 0 {
		return append(buf, ptrNil)
	}
	if e.opts.NoPointerTracking {
		// Ablation: the raw address, as a "stack" entry keyed by the
		// exact address — what a tool without malloc interception sees.
		buf = append(buf, ptrStack)
		return refPutUvarint(buf, addr)
	}
	if seg, ok := e.mem.Find(addr); ok {
		buf = append(buf, ptrHeap)
		buf = refPutUvarint(buf, uint64(seg.ID))
		buf = refPutUvarint(buf, addr-seg.Addr)
		buf = refPutUvarint(buf, uint64(seg.Device))
		return buf
	}
	// Stack (or otherwise unknown) address: assign a per-address id,
	// conservatively sized (§3.3.3).
	id, ok := e.stackIDs[addr]
	if !ok {
		id = e.stackPool.Get()
		e.stackIDs[addr] = id
	}
	buf = append(buf, ptrStack)
	return refPutUvarint(buf, uint64(id))
}

// symbolicType returns (and lazily assigns, for predefined handles)
// the symbolic id of a datatype handle.
func (e *refEncoder) symbolicType(h int64) int32 {
	if h >= predefTypeHandleBase && h < predefTypeHandleBase+predefTypeCount {
		return int32(h - predefTypeHandleBase) // reserved ids 0..15
	}
	if id, ok := e.typeIDs[h]; ok {
		return id
	}
	// Unknown derived handle (shouldn't happen in well-formed traces):
	// assign on first sight so encoding stays total.
	id := e.typePool.Get() + predefTypeCount
	e.typeIDs[h] = id
	return id
}

func (e *refEncoder) symbolicOp(h int64) int32 {
	if h >= predefOpHandleBase && h < predefOpHandleBase+predefOpCount {
		return int32(h - predefOpHandleBase)
	}
	if id, ok := e.opIDs[h]; ok {
		return id
	}
	id := e.opPool.Get() + predefOpCount
	e.opIDs[h] = id
	return id
}

func (e *refEncoder) symbolicGroup(h int64) int32 {
	if id, ok := e.groupIDs[h]; ok {
		return id
	}
	id := e.groupPool.Get()
	e.groupIDs[h] = id
	return id
}

func (e *refEncoder) symbolicComm(h int64) int64 {
	if h == 0 {
		return -1
	}
	if id, ok := e.commIDs[h]; ok {
		return int64(id)
	}
	// Comm whose id agreement is still pending (idup before wait).
	return commPending
}

func (e *refEncoder) symbolicRequest(h int64) int64 {
	if h == 0 {
		return -1
	}
	if ent, ok := e.reqIDs[h]; ok {
		return int64(ent.id)
	}
	return -2 // unknown request (already released)
}

// EncodeTo is Encode appending into buf (usually a caller-owned
// scratch sliced to zero length) and returning the extended slice.
// Once the scratch has grown to the workload's signature sizes the
// common call encodes with zero allocations; the tracer's per-call
// path relies on this.
func (e *refEncoder) EncodeTo(buf []byte, rec *mpispec.CallRecord) []byte {
	// Lifecycle, part 1: request-creating calls need the pool key
	// (signature sans request) before the request id can be chosen.
	spec := mpispec.Spec[rec.Func]
	base := e.commRankOf(rec)

	if reqArg := refRequestCreatingArg(rec.Func); reqArg >= 0 {
		e.keyBuf = e.encodeArgs(e.keyBuf[:0], rec, spec, base, true)
		key := e.keyBuf
		if e.opts.SharedRequestPool {
			key = nil // §3.4.3 off: one pool for every request
		}
		if h := rec.Args[reqArg].I; h != 0 {
			pool := e.reqPools.Pool(key)
			e.reqIDs[h] = refReqEntry{id: pool.Get(), pool: pool, persistent: refIsPersistentInit(rec.Func)}
		}
	}

	e.assignCreatedObjects(rec)

	buf = refPutUvarint(buf, uint64(rec.Func))
	buf = e.encodeArgs(buf, rec, spec, base, false)

	e.releaseCompletedObjects(rec)
	e.pollPending()
	return buf
}

// encodeArgs encodes all arguments. When skipRequests is true, request
// values are omitted entirely — that variant is the §3.4.3 pool key.
func (e *refEncoder) encodeArgs(buf []byte, rec *mpispec.CallRecord, spec mpispec.FuncSpec, base int64, skipRequests bool) []byte {
	for i, a := range rec.Args {
		var pname string
		if i < len(spec.Params) {
			pname = spec.Params[i].Name
		}
		switch a.Kind {
		case mpispec.KInt:
			buf = refPutVarint(buf, a.I)
		case mpispec.KRank:
			buf = e.encodeRank(buf, a.I, base, refPeerParam(pname))
		case mpispec.KTag, mpispec.KColor, mpispec.KKey:
			buf = e.encodeWindowed(buf, a.I, base)
		case mpispec.KComm:
			buf = refPutVarint(buf, e.symbolicComm(a.I))
		case mpispec.KDatatype:
			if a.I == 0 {
				buf = refPutVarint(buf, -1)
			} else {
				buf = refPutVarint(buf, int64(e.symbolicType(a.I)))
			}
		case mpispec.KOp:
			if a.I == 0 {
				buf = refPutVarint(buf, -1)
			} else {
				buf = refPutVarint(buf, int64(e.symbolicOp(a.I)))
			}
		case mpispec.KGroup:
			if a.I == 0 {
				buf = refPutVarint(buf, -1)
			} else {
				buf = refPutVarint(buf, int64(e.symbolicGroup(a.I)))
			}
		case mpispec.KRequest:
			if skipRequests {
				continue
			}
			buf = refPutVarint(buf, e.symbolicRequest(a.I))
		case mpispec.KReqArray:
			if skipRequests {
				continue
			}
			buf = refPutUvarint(buf, uint64(len(a.Arr)))
			for _, h := range a.Arr {
				buf = refPutVarint(buf, e.symbolicRequest(h))
			}
		case mpispec.KStatus:
			buf = e.encodeStatus(buf, a.Arr, base)
		case mpispec.KStatArray:
			buf = refPutUvarint(buf, uint64(len(a.Arr)/2))
			for j := 0; j+1 < len(a.Arr); j += 2 {
				buf = e.encodeStatus(buf, a.Arr[j:j+2], base)
			}
		case mpispec.KPtr:
			buf = e.encodePtr(buf, uint64(a.I))
		case mpispec.KString:
			buf = refPutUvarint(buf, uint64(len(a.S)))
			buf = append(buf, a.S...)
		case mpispec.KIntArray, mpispec.KIndexArray:
			buf = refPutUvarint(buf, uint64(len(a.Arr)))
			for _, v := range a.Arr {
				buf = refPutVarint(buf, v)
			}
		default:
			panic(fmt.Sprintf("sig: unhandled kind %v in %s", a.Kind, spec.Name))
		}
	}
	return buf
}

// encodeStatus keeps MPI_SOURCE (relative) and MPI_TAG (§3.3.2).
func (e *refEncoder) encodeStatus(buf []byte, st []int64, base int64) []byte {
	var src, tag int64 = undefined, undefined
	if len(st) >= 2 {
		src, tag = st[0], st[1]
	}
	buf = e.encodeRank(buf, src, base, true)
	return refPutVarint(buf, tag)
}

// refRequestCreatingArg returns the index of the request output argument
// for calls that create a request, or -1.
func refRequestCreatingArg(f mpispec.FuncID) int {
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

// refIsPersistentInit reports whether the call creates a persistent
// request, whose id survives completions until MPI_Request_free.
func refIsPersistentInit(f mpispec.FuncID) bool {
	switch f {
	case mpispec.FSendInit, mpispec.FBsendInit, mpispec.FSsendInit, mpispec.FRsendInit, mpispec.FRecvInit:
		return true
	}
	return false
}

// refCommCreatingArg returns the index of the newcomm output argument for
// blocking communicator-creating calls, or -1.
func refCommCreatingArg(f mpispec.FuncID) int {
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

// refTypeCreatingArg returns the newtype output argument index, or -1.
func refTypeCreatingArg(f mpispec.FuncID) int {
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

// refGroupCreatingArgs returns the new-group output argument indices.
func refGroupCreatingArgs(f mpispec.FuncID) []int {
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
func (e *refEncoder) assignCreatedObjects(rec *mpispec.CallRecord) {
	if i := refCommCreatingArg(rec.Func); i >= 0 {
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
			e.pending = append(e.pending, pendingComm{token: tok, commHandle: h, request: rec.Args[2].I})
		}
	}
	if i := refTypeCreatingArg(rec.Func); i >= 0 {
		if h := rec.Args[i].I; h != 0 {
			if _, known := e.typeIDs[h]; !known {
				e.typeIDs[h] = e.typePool.Get() + predefTypeCount
			}
		}
	}
	for _, i := range refGroupCreatingArgs(rec.Func) {
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
func (e *refEncoder) releaseRequest(h int64, evenPersistent bool) {
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
func (e *refEncoder) releaseCompletedObjects(rec *mpispec.CallRecord) {
	args := rec.Args
	switch rec.Func {
	case mpispec.FWait:
		e.complete(args[0].I)
	case mpispec.FTest:
		if args[1].I != 0 {
			e.complete(args[0].I)
		}
	case mpispec.FWaitall:
		for _, h := range args[1].Arr {
			e.complete(h)
		}
	case mpispec.FWaitany:
		if idx := args[2].I; idx >= 0 && int(idx) < len(args[1].Arr) {
			e.complete(args[1].Arr[idx])
		}
	case mpispec.FWaitsome:
		for _, idx := range args[3].Arr {
			if idx >= 0 && int(idx) < len(args[1].Arr) {
				e.complete(args[1].Arr[idx])
			}
		}
	case mpispec.FTestall:
		if args[2].I != 0 {
			for _, h := range args[1].Arr {
				e.complete(h)
			}
		}
	case mpispec.FTestany:
		if args[3].I != 0 {
			if idx := args[2].I; idx >= 0 && int(idx) < len(args[1].Arr) {
				e.complete(args[1].Arr[idx])
			}
		}
	case mpispec.FTestsome:
		for _, idx := range args[3].Arr {
			if idx >= 0 && int(idx) < len(args[1].Arr) {
				e.complete(args[1].Arr[idx])
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

// complete is the Wait*/Test* epilogue of request h: an MPI_Comm_idup's
// request resolves its communicator's id, polling until it lands.
func (e *refEncoder) complete(h int64) {
	for i, pc := range e.pending {
		if pc.request != h || h == 0 {
			continue
		}
		done, groupMax := e.oob.PollOOB(pc.token)
		for !done {
			done, groupMax = e.oob.PollOOB(pc.token)
		}
		e.pending = append(e.pending[:i:i], e.pending[i+1:]...)
		newID := groupMax + 1
		e.commIDs[pc.commHandle] = newID
		if newID > e.maxCommID {
			e.maxCommID = newID
		}
		break
	}
	e.releaseRequest(h, false)
}

// pollPending resolves communicator ids whose non-blocking agreement
// (MPI_Comm_idup) has completed. Called from every encode, which
// covers the paper's "check in Wait/Test epilogues" behaviour.
func (e *refEncoder) pollPending() {
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
