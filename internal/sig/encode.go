// Package sig implements Pilgrim's parameter encoding (§3.3): every
// intercepted call is turned into a compact, self-delimiting byte
// signature in which
//
//   - MPI object handles (communicators, datatypes, groups, ops,
//     requests) are replaced by small symbolic ids so that the call
//     creating an object can be matched with the calls using it;
//   - communicator ids are agreed group-wide through an out-of-band
//     all-reduce (§3.3.1), so all members see the same id;
//   - requests draw their ids from per-call-signature pools (§3.4.3),
//     making ids independent of completion order;
//   - source/destination ranks are encoded relative to the caller's
//     rank in the communicator (§3.4.2), with a small window applied
//     to tags, colors and keys;
//   - memory pointers become (segment id, displacement) pairs backed
//     by an AVL tree over intercepted allocations (§3.3.3), with a
//     conservative per-address fallback for stack memory;
//   - statuses keep only MPI_SOURCE and MPI_TAG (§3.3.2).
//
// Identical program behaviour on different ranks therefore yields
// bytewise identical signatures, which is what makes both the CST and
// the inter-process compression effective.
package sig

import (
	"encoding/binary"
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/avl"
	"github.com/hpcrepro/pilgrim/internal/idpool"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// Selectors for rank-like and pointer encodings.
const (
	selRel      = 0 // relative to caller rank
	selAbs      = 1 // absolute value
	selProcNull = 2
	selAnySrc   = 3
	selAnyTag   = 3
	selUndef    = 4

	ptrHeap  = 0
	ptrStack = 1
	ptrNil   = 2

	// commPending is the signature placeholder for a communicator
	// whose group-wide id is still travelling in a non-blocking
	// all-reduce (MPI_Comm_idup).
	commPending = int64(1<<31 - 1)
)

// Special rank values mirrored from the mpi package (kept here so sig
// has no dependency on it).
const (
	procNull  = -1
	anySource = -2
	anyTag    = -1
	undefined = -3
)

// relWindow bounds when tags/colors/keys are encoded relative to the
// caller's rank (they are "possibly rank-related", §3.4.2). Zero means
// only exact matches: a wider window would smear rank-independent
// constants that happen to lie near the rank into extra signature
// classes (one per rank in the window), hurting inter-process
// compression more than relative encoding helps.
const relWindow = 0

// Reserved symbolic-id spaces for predefined objects. These mirror the
// mpi package's well-known handle ranges.
const (
	predefTypeHandleBase = 16
	predefTypeCount      = 16
	predefOpHandleBase   = 64
	predefOpCount        = 16
	worldHandle          = 1
	selfHandle           = 2
)

// reqEntry tracks a live request's symbolic id and its origin pool.
type reqEntry struct {
	id         int32
	pool       *idpool.Pool
	persistent bool
}

// pendingComm is an in-flight non-blocking comm-id agreement.
type pendingComm struct {
	token      int64
	commHandle int64
}

// Options disables individual encoding optimizations, for the
// ablation experiments that quantify each design choice of §3.3-3.4.
type Options struct {
	// NoRelativeRanks stores peer ranks absolutely (§3.4.2 off).
	NoRelativeRanks bool
	// SharedRequestPool uses a single id pool for all requests instead
	// of one per call signature (§3.4.3 off).
	SharedRequestPool bool
	// NoPointerTracking stores raw addresses instead of
	// (segment, offset) pairs (§3.3.3 off).
	NoPointerTracking bool
}

// Encoder holds all per-process symbolic state. One Encoder exists per
// traced rank.
type Encoder struct {
	rank int
	oob  mpispec.OOB
	opts Options

	commIDs   map[int64]int32
	maxCommID int32

	// The maps of derived types, groups, user ops and stack addresses
	// are made by their first write; most ranks never have any.
	typeIDs  map[int64]int32
	typePool idpool.Pool

	groupIDs  map[int64]int32
	groupPool idpool.Pool

	opIDs  map[int64]int32
	opPool idpool.Pool

	reqIDs   map[int64]reqEntry
	reqPools idpool.RequestPools

	mem       avl.Tree
	memPool   idpool.Pool
	stackIDs  map[uint64]int32
	stackPool idpool.Pool

	pending []pendingComm

	oobWaitNs int64 // wall time blocked in oob.AllreduceMaxInt32
}

// NewEncoder builds the per-rank symbolic state. oob may be nil when
// no communicator-creating calls will be traced (tests).
func NewEncoder(rank int, oob mpispec.OOB) *Encoder {
	return NewEncoderOpts(rank, oob, Options{})
}

// NewEncoderOpts is NewEncoder with ablation options.
func NewEncoderOpts(rank int, oob mpispec.OOB, opts Options) *Encoder {
	return &Encoder{
		rank:      rank,
		oob:       oob,
		opts:      opts,
		commIDs:   map[int64]int32{worldHandle: 0, selfHandle: 1},
		maxCommID: 1,
		reqIDs:    map[int64]reqEntry{},
	}
}

// SetOOB late-binds the out-of-band collective interface (the rank's
// runtime handle may not exist when the encoder is built).
func (e *Encoder) SetOOB(oob mpispec.OOB) { e.oob = oob }

// MemAlloc registers an intercepted allocation (§3.3.3). Insert
// replaces a segment already registered at addr (its free was not
// intercepted), so that segment's id goes back first and a
// realloc-in-place keeps it.
func (e *Encoder) MemAlloc(addr, size uint64, device int32) {
	e.MemFree(addr)
	id := e.memPool.Get()
	e.mem.Insert(avl.Segment{Addr: addr, Size: size, ID: id, Device: device})
}

// MemFree releases an allocation and recycles its id.
func (e *Encoder) MemFree(addr uint64) {
	if seg, ok := e.mem.Lookup(addr); ok {
		e.memPool.Put(seg.ID)
		e.mem.Delete(addr)
	}
}

// OOBWaitNs returns the wall time the encoder has spent blocked in the
// §3.3.1 agreement on a new communicator's id, waiting for the group's
// slowest member.
func (e *Encoder) OOBWaitNs() int64 { return e.oobWaitNs }

// LiveSegments returns the number of currently tracked heap segments.
func (e *Encoder) LiveSegments() int { return e.mem.Len() }

// --- primitive emitters ------------------------------------------------------

// commRankOf extracts the caller's rank within the call's communicator
// (carried in the KComm value), falling back to the world rank.
func (e *Encoder) commRankOf(rec *mpispec.CallRecord, ff *funcFacts) int64 {
	if c := int(ff.comm); c >= 0 && c < len(rec.Args) {
		if a := &rec.Args[c]; a.Kind == mpispec.KComm && len(a.Arr) > 0 {
			return a.Arr[0]
		}
	}
	// A null first communicator: any other one that carries a rank.
	for i := range rec.Args {
		if a := &rec.Args[i]; a.Kind == mpispec.KComm && len(a.Arr) > 0 {
			return a.Arr[0]
		}
	}
	return int64(e.rank)
}

func (e *Encoder) encodeRank(buf []byte, v, base int64, peer bool) []byte {
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
		return binary.AppendVarint(buf, v-base)
	}
	buf = append(buf, selAbs)
	return binary.AppendVarint(buf, v)
}

func (e *Encoder) encodeWindowed(buf []byte, v, base int64) []byte {
	if v == anyTag {
		// MPI_UNDEFINED (-3, a split color) is a different value and
		// has no selector here: it is stored absolutely.
		return append(buf, selAnyTag)
	}
	if d := v - base; d >= -relWindow && d <= relWindow && !e.opts.NoRelativeRanks {
		buf = append(buf, selRel)
		return binary.AppendVarint(buf, d)
	}
	buf = append(buf, selAbs)
	return binary.AppendVarint(buf, v)
}

// setID records k's symbolic id in *m, making the map on its first
// write.
func setID[K comparable](m *map[K]int32, k K, id int32) {
	if *m == nil {
		*m = make(map[K]int32)
	}
	(*m)[k] = id
}

func (e *Encoder) encodePtr(buf []byte, addr uint64) []byte {
	if addr == 0 {
		return append(buf, ptrNil)
	}
	if e.opts.NoPointerTracking {
		// Ablation: the raw address, as a "stack" entry keyed by the
		// exact address — what a tool without malloc interception sees.
		buf = append(buf, ptrStack)
		return binary.AppendUvarint(buf, addr)
	}
	if seg, ok := e.mem.Find(addr); ok {
		buf = append(buf, ptrHeap)
		buf = binary.AppendUvarint(buf, uint64(seg.ID))
		buf = binary.AppendUvarint(buf, addr-seg.Addr)
		buf = binary.AppendUvarint(buf, uint64(seg.Device))
		return buf
	}
	// Stack (or otherwise unknown) address: assign a per-address id,
	// conservatively sized (§3.3.3).
	id, ok := e.stackIDs[addr]
	if !ok {
		id = e.stackPool.Get()
		setID(&e.stackIDs, addr, id)
	}
	buf = append(buf, ptrStack)
	return binary.AppendUvarint(buf, uint64(id))
}

// symbolicType returns (and lazily assigns, for predefined handles)
// the symbolic id of a datatype handle.
func (e *Encoder) symbolicType(h int64) int32 {
	if h >= predefTypeHandleBase && h < predefTypeHandleBase+predefTypeCount {
		return int32(h - predefTypeHandleBase) // reserved ids 0..15
	}
	if id, ok := e.typeIDs[h]; ok {
		return id
	}
	// Unknown derived handle (shouldn't happen in well-formed traces):
	// assign on first sight so encoding stays total.
	id := e.typePool.Get() + predefTypeCount
	setID(&e.typeIDs, h, id)
	return id
}

func (e *Encoder) symbolicOp(h int64) int32 {
	if h >= predefOpHandleBase && h < predefOpHandleBase+predefOpCount {
		return int32(h - predefOpHandleBase)
	}
	if id, ok := e.opIDs[h]; ok {
		return id
	}
	id := e.opPool.Get() + predefOpCount
	setID(&e.opIDs, h, id)
	return id
}

func (e *Encoder) symbolicGroup(h int64) int32 {
	if id, ok := e.groupIDs[h]; ok {
		return id
	}
	id := e.groupPool.Get()
	setID(&e.groupIDs, h, id)
	return id
}

func (e *Encoder) symbolicComm(h int64) int64 {
	if h == 0 {
		return -1
	}
	if id, ok := e.commIDs[h]; ok {
		return int64(id)
	}
	// Comm whose id agreement is still pending (idup before wait).
	return commPending
}

func (e *Encoder) symbolicRequest(h int64) int64 {
	if h == 0 {
		return -1
	}
	if ent, ok := e.reqIDs[h]; ok {
		return int64(ent.id)
	}
	return -2 // unknown request (already released)
}

// Encode turns a completed CallRecord into its signature bytes. It
// also performs the object-lifecycle bookkeeping (id assignment and
// release) that the call implies. The returned slice is freshly
// allocated; hot paths that can recycle a scratch buffer should use
// EncodeTo instead.
func (e *Encoder) Encode(rec *mpispec.CallRecord) []byte {
	return e.EncodeTo(nil, rec)
}

// EncodeTo is Encode appending into buf (usually a caller-owned
// scratch sliced to zero length) and returning the extended slice.
// Once the scratch has grown to the workload's signature sizes the
// common call encodes with zero allocations; the tracer's per-call
// path relies on this.
//
// The arguments are encoded once. A request-creating call leaves its
// new request's slot out, which makes the bytes after the function id
// the §3.4.3 pool key (the signature sans request); the id drawn with
// that key is then spliced in where the slot was.
func (e *Encoder) EncodeTo(buf []byte, rec *mpispec.CallRecord) []byte {
	ff := &facts[rec.Func]
	e.assignCreatedObjects(rec, ff)

	buf = binary.AppendUvarint(buf, uint64(rec.Func))
	args := len(buf)
	buf, reqOff := e.encodeArgs(buf, rec, ff)
	if reqOff >= 0 {
		key := buf[args:]
		if e.opts.SharedRequestPool {
			key = nil // §3.4.3 off: one pool for every request
		}
		buf = insertVarint(buf, reqOff, e.createRequest(rec.Args[ff.newRequest].I, key, ff.persistent))
	}

	e.releaseCompletedObjects(rec)
	e.pollPending()
	return buf
}

// createRequest draws new request h's id from the pool of its key and
// returns what the request's slot encodes.
func (e *Encoder) createRequest(h int64, key []byte, persistent bool) int64 {
	if h == 0 {
		return -1
	}
	pool := e.reqPools.Pool(key)
	id := pool.Get()
	e.reqIDs[h] = reqEntry{id: id, pool: pool, persistent: persistent}
	return int64(id)
}

// insertVarint inserts v's varint at buf[off:], moving the tail up.
func insertVarint(buf []byte, off int, v int64) []byte {
	tail := len(buf) - off
	buf = binary.AppendVarint(buf, v)
	if tail > 0 {
		var enc [binary.MaxVarintLen64]byte
		n := copy(enc[:], buf[off+tail:])
		copy(buf[off+n:], buf[off:off+tail])
		copy(buf[off:], enc[:n])
	}
	return buf
}

// encodeArgs encodes all arguments but the request the call creates,
// if it creates one; it returns where that one goes, or -1.
func (e *Encoder) encodeArgs(buf []byte, rec *mpispec.CallRecord, ff *funcFacts) ([]byte, int) {
	base := e.commRankOf(rec, ff)
	reqSlot, reqOff := int(ff.newRequest), -1
	for i := range rec.Args {
		a := &rec.Args[i]
		switch a.Kind {
		case mpispec.KInt:
			buf = binary.AppendVarint(buf, a.I)
		case mpispec.KRank:
			buf = e.encodeRank(buf, a.I, base, ff.peers&(1<<i) != 0)
		case mpispec.KTag, mpispec.KColor, mpispec.KKey:
			buf = e.encodeWindowed(buf, a.I, base)
		case mpispec.KComm:
			buf = binary.AppendVarint(buf, e.symbolicComm(a.I))
		case mpispec.KDatatype:
			if a.I == 0 {
				buf = binary.AppendVarint(buf, -1)
			} else {
				buf = binary.AppendVarint(buf, int64(e.symbolicType(a.I)))
			}
		case mpispec.KOp:
			if a.I == 0 {
				buf = binary.AppendVarint(buf, -1)
			} else {
				buf = binary.AppendVarint(buf, int64(e.symbolicOp(a.I)))
			}
		case mpispec.KGroup:
			if a.I == 0 {
				buf = binary.AppendVarint(buf, -1)
			} else {
				buf = binary.AppendVarint(buf, int64(e.symbolicGroup(a.I)))
			}
		case mpispec.KRequest:
			if i == reqSlot {
				reqOff = len(buf)
				continue
			}
			buf = binary.AppendVarint(buf, e.symbolicRequest(a.I))
		case mpispec.KReqArray:
			buf = binary.AppendUvarint(buf, uint64(len(a.Arr)))
			for _, h := range a.Arr {
				buf = binary.AppendVarint(buf, e.symbolicRequest(h))
			}
		case mpispec.KStatus:
			buf = e.encodeStatus(buf, a.Arr, base)
		case mpispec.KStatArray:
			buf = binary.AppendUvarint(buf, uint64(len(a.Arr)/2))
			for j := 0; j+1 < len(a.Arr); j += 2 {
				buf = e.encodeStatus(buf, a.Arr[j:j+2], base)
			}
		case mpispec.KPtr:
			buf = e.encodePtr(buf, uint64(a.I))
		case mpispec.KString:
			buf = binary.AppendUvarint(buf, uint64(len(a.S)))
			buf = append(buf, a.S...)
		case mpispec.KIntArray, mpispec.KIndexArray:
			buf = binary.AppendUvarint(buf, uint64(len(a.Arr)))
			for _, v := range a.Arr {
				buf = binary.AppendVarint(buf, v)
			}
		default:
			panic(fmt.Sprintf("sig: unhandled kind %v in %s", a.Kind, rec.Func.Name()))
		}
	}
	return buf, reqOff
}

// encodeStatus keeps MPI_SOURCE (relative) and MPI_TAG (§3.3.2).
func (e *Encoder) encodeStatus(buf []byte, st []int64, base int64) []byte {
	var src, tag int64 = undefined, undefined
	if len(st) >= 2 {
		src, tag = st[0], st[1]
	}
	buf = e.encodeRank(buf, src, base, true)
	return binary.AppendVarint(buf, tag)
}
