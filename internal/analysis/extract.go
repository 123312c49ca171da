package analysis

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/sig"
)

// Point-to-point operation extraction: walks one rank's event stream
// and produces every posted send and receive with absolute (world)
// peer ranks, payload bytes, and post/completion times. Nonblocking
// operations are tracked through the request id space exactly as the
// replay interpreter does — FIFO per symbolic id, with persistent
// templates instantiated by Start/Startall — so completion calls
// (Wait/Test families) attach their times and recorded statuses to
// the right posts.

// SendOp is one posted point-to-point send.
type SendOp struct {
	Rank      int // sender world rank
	Index     int // posting call's position in the sender's stream
	DoneIndex int // completing call's position (== Index for blocking)
	Dst       int // receiver world rank
	Tag       int64
	CommID    int64
	Comm      *commView
	Count     int64
	Bytes     int64
	TPost     int64 // posting call start
	TDone     int64 // completing call end
	Func      mpispec.FuncID
	Cancelled bool
}

func (s *SendOp) key() (int, int) { return s.Rank, s.Index }

// RecvOp is one posted point-to-point receive. Src and Tag hold the
// posted values (mpi.AnySource / mpi.AnyTag for wildcards) until the
// completing call's recorded status resolves them.
type RecvOp struct {
	Rank      int
	Index     int
	DoneIndex int
	Src       int // sender world rank; valAnySource until resolved
	Tag       int64
	CommID    int64
	Comm      *commView
	Count     int64
	Capacity  int64 // posted buffer capacity in bytes
	TPost     int64
	TDone     int64
	Func      mpispec.FuncID
	Completed bool
	Cancelled bool
}

func (r *RecvOp) key() (int, int) { return r.Rank, r.Index }

// predefSizes mirrors the byte sizes of the runtime's predefined
// datatypes in symbolic-id order (handle − hTypeBase).
var predefSizes = []int64{1, 1, 4, 8, 4, 8, 2, 4, 8, 1, 2, 4, 8, 1, 16}

// predefHandleBase mirrors mpi's hTypeBase (predefined datatype
// handles 16..47; symbolic id = handle − 16).
const predefHandleBase = 16

// reqInstance is one in-flight nonblocking operation.
type reqInstance struct {
	send *SendOp
	recv *RecvOp
}

// persistentReq is an inactive Send_init/Recv_init template.
type persistentReq struct {
	isSend bool
	peer   sig.DecodedValue // dest or source field as recorded
	tag    sig.DecodedValue
	commID int64
	count  int64
	dtype  int64
	fn     mpispec.FuncID
}

// extractor is the per-rank walk state.
type extractor struct {
	rank  int
	views map[int64]*commView

	dtSizes map[int64]int64
	pending map[int64][]*reqInstance
	templ   map[int64]*persistentReq

	sends []*SendOp
	recvs []*RecvOp
}

// extractRank derives every send and recv of one rank from its event
// stream (events must be the rank's full stream in call order).
func extractRank(events []Event, views map[int64]*commView) ([]*SendOp, []*RecvOp, error) {
	if len(events) == 0 {
		return nil, nil, nil
	}
	x := &extractor{
		rank:    events[0].Rank,
		views:   views,
		dtSizes: map[int64]int64{},
		pending: map[int64][]*reqInstance{},
		templ:   map[int64]*persistentReq{},
	}
	for i, sz := range predefSizes {
		x.dtSizes[int64(i)] = sz
	}
	for _, ev := range events {
		if err := x.step(ev); err != nil {
			return nil, nil, fmt.Errorf("call %d (%s): %w", ev.Index, ev.Func().Name(), err)
		}
	}
	return x.sends, x.recvs, nil
}

func (x *extractor) view(commID int64) (*commView, error) {
	v, ok := x.views[commID]
	if !ok {
		return nil, fmt.Errorf("unknown comm id %d", commID)
	}
	return v, nil
}

// typeSize returns the byte size of a symbolic datatype id.
func (x *extractor) typeSize(id int64) int64 { return x.dtSizes[id] }

func (x *extractor) step(ev Event) error {
	a := ev.Call.Args
	if c := mpispec.CompletionOf(ev.Func()); c != nil {
		x.completeCall(ev, c)
		return nil
	}
	switch f := ev.Func(); f {

	// Blocking sends.
	case mpispec.FSend, mpispec.FBsend, mpispec.FSsend, mpispec.FRsend:
		s, err := x.makeSend(ev, a[3], a[4], a[5].I, a[1].I, a[2].I, false)
		if err != nil || s == nil {
			return err
		}
		s.TDone, s.DoneIndex = ev.TEnd, ev.Index
		x.sends = append(x.sends, s)

	// Blocking receive.
	case mpispec.FRecv:
		r, err := x.makeRecv(ev, a[3], a[4], a[5].I, a[1].I, a[2].I)
		if err != nil || r == nil {
			return err
		}
		x.recvs = append(x.recvs, r)
		x.completeRecv(r, ev, &a[6], int64(r.Comm.myRank))

	// Nonblocking posts.
	case mpispec.FIsend, mpispec.FIbsend, mpispec.FIssend, mpispec.FIrsend:
		s, err := x.makeSend(ev, a[3], a[4], a[5].I, a[1].I, a[2].I, false)
		if err != nil {
			return err
		}
		if s != nil {
			x.sends = append(x.sends, s)
			x.push(a[6].I, &reqInstance{send: s})
		}
	case mpispec.FIrecv:
		r, err := x.makeRecv(ev, a[3], a[4], a[5].I, a[1].I, a[2].I)
		if err != nil {
			return err
		}
		if r != nil {
			x.recvs = append(x.recvs, r)
			x.push(a[6].I, &reqInstance{recv: r})
		}

	// Combined send+recv.
	case mpispec.FSendrecv:
		s, err := x.makeSend(ev, a[3], a[4], a[10].I, a[1].I, a[2].I, false)
		if err != nil {
			return err
		}
		if s != nil {
			s.TDone, s.DoneIndex = ev.TEnd, ev.Index
			x.sends = append(x.sends, s)
		}
		r, err := x.makeRecv(ev, a[8], a[9], a[10].I, a[6].I, a[7].I)
		if err != nil {
			return err
		}
		if r != nil {
			x.recvs = append(x.recvs, r)
			x.completeRecv(r, ev, &a[11], int64(r.Comm.myRank))
		}
	case mpispec.FSendrecvReplace:
		s, err := x.makeSend(ev, a[3], a[4], a[7].I, a[1].I, a[2].I, false)
		if err != nil {
			return err
		}
		if s != nil {
			s.TDone, s.DoneIndex = ev.TEnd, ev.Index
			x.sends = append(x.sends, s)
		}
		r, err := x.makeRecv(ev, a[5], a[6], a[7].I, a[1].I, a[2].I)
		if err != nil {
			return err
		}
		if r != nil {
			x.recvs = append(x.recvs, r)
			x.completeRecv(r, ev, &a[8], int64(r.Comm.myRank))
		}

	// Persistent templates and activation.
	case mpispec.FSendInit, mpispec.FBsendInit, mpispec.FSsendInit, mpispec.FRsendInit:
		x.templ[a[6].I] = &persistentReq{isSend: true, peer: a[3], tag: a[4],
			commID: a[5].I, count: a[1].I, dtype: a[2].I, fn: f}
	case mpispec.FRecvInit:
		x.templ[a[6].I] = &persistentReq{isSend: false, peer: a[3], tag: a[4],
			commID: a[5].I, count: a[1].I, dtype: a[2].I, fn: f}
	case mpispec.FStart:
		return x.start(ev, a[0].I)
	case mpispec.FStartall:
		for _, rv := range a[1].Arr {
			if err := x.start(ev, rv.I); err != nil {
				return err
			}
		}

	case mpispec.FRequestFree:
		id := a[0].I
		if q := x.pending[id]; len(q) > 0 {
			// The operation still completes under the covers; take the
			// free call as the last point it is known to exist.
			x.finish(q[0], ev, nil, 0)
			x.pending[id] = q[1:]
		} else {
			delete(x.templ, id)
		}
	case mpispec.FCancel:
		if q := x.pending[a[0].I]; len(q) > 0 {
			inst := q[len(q)-1]
			if inst.send != nil {
				inst.send.Cancelled = true
			}
			if inst.recv != nil {
				inst.recv.Cancelled = true
			}
		}

	// Datatype lifecycle (needed for payload byte accounting).
	case mpispec.FTypeContiguous:
		x.dtSizes[a[2].I] = a[0].I * x.typeSize(a[1].I)
	case mpispec.FTypeVector:
		x.dtSizes[a[4].I] = a[0].I * a[1].I * x.typeSize(a[3].I)
	case mpispec.FTypeIndexed:
		var total int64
		for _, bl := range a[1].Arr {
			total += bl.I * x.typeSize(a[3].I)
		}
		x.dtSizes[a[4].I] = total
	case mpispec.FTypeCreateStruct:
		// The member types array carries raw runtime handles (it is a
		// plain int array on the wire); only predefined handles are
		// resolvable post-mortem.
		var total int64
		for i, bl := range a[1].Arr {
			if i < len(a[3].Arr) {
				h := a[3].Arr[i].I
				if h >= predefHandleBase && h-predefHandleBase < int64(len(predefSizes)) {
					total += bl.I * predefSizes[h-predefHandleBase]
				}
			}
		}
		x.dtSizes[a[4].I] = total
	case mpispec.FTypeDup:
		x.dtSizes[a[1].I] = x.typeSize(a[0].I)
	case mpispec.FTypeFree:
		delete(x.dtSizes, a[0].I)
	}
	return nil
}

// makeSend builds a SendOp from a posting call's fields. ProcNull
// destinations return (nil, nil): the runtime completes them without
// posting an envelope, and the metrics layer does not count them.
func (x *extractor) makeSend(ev Event, dst, tag sig.DecodedValue, commID, count, dtype int64, persistent bool) (*SendOp, error) {
	if dst.IsProcNull() {
		return nil, nil
	}
	v, err := x.view(commID)
	if err != nil {
		return nil, err
	}
	base := int64(v.myRank)
	peer := dst.Resolve(base)
	if peer < 0 || int(peer) >= len(v.group) {
		return nil, fmt.Errorf("send dest %d outside comm of %d", peer, len(v.group))
	}
	return &SendOp{
		Rank: ev.Rank, Index: ev.Index, DoneIndex: ev.Index,
		Dst: v.group[peer], Tag: tag.Resolve(base), CommID: commID, Comm: v,
		Count: count, Bytes: count * x.typeSize(dtype),
		TPost: ev.TStart, TDone: ev.TEnd, Func: ev.Func(),
	}, nil
}

// makeRecv builds a RecvOp. ProcNull sources return (nil, nil).
func (x *extractor) makeRecv(ev Event, src, tag sig.DecodedValue, commID, count, dtype int64) (*RecvOp, error) {
	if src.IsProcNull() {
		return nil, nil
	}
	v, err := x.view(commID)
	if err != nil {
		return nil, err
	}
	base := int64(v.myRank)
	r := &RecvOp{
		Rank: ev.Rank, Index: ev.Index, DoneIndex: ev.Index,
		Src: valAnySource, Tag: tag.Resolve(base), CommID: commID, Comm: v,
		Count: count, Capacity: count * x.typeSize(dtype),
		TPost: ev.TStart, TDone: ev.TEnd, Func: ev.Func(),
	}
	if !src.IsWildcard() {
		peer := src.Resolve(base)
		if peer < 0 || int(peer) >= len(v.group) {
			return nil, fmt.Errorf("recv source %d outside comm of %d", peer, len(v.group))
		}
		r.Src = v.group[peer]
	}
	return r, nil
}

func (x *extractor) push(reqID int64, inst *reqInstance) {
	x.pending[reqID] = append(x.pending[reqID], inst)
}

// start instantiates a persistent template as an in-flight op.
func (x *extractor) start(ev Event, reqID int64) error {
	t, ok := x.templ[reqID]
	if !ok {
		return fmt.Errorf("Start on unknown persistent request %d", reqID)
	}
	if t.isSend {
		s, err := x.makeSend(ev, t.peer, t.tag, t.commID, t.count, t.dtype, true)
		if err != nil {
			return err
		}
		if s != nil {
			s.Func = t.fn
			x.sends = append(x.sends, s)
			x.push(reqID, &reqInstance{send: s})
		}
		return nil
	}
	r, err := x.makeRecv(ev, t.peer, t.tag, t.commID, t.count, t.dtype)
	if err != nil {
		return err
	}
	if r != nil {
		r.Func = t.fn
		x.recvs = append(x.recvs, r)
		x.push(reqID, &reqInstance{recv: r})
	}
	return nil
}

// complete pops the oldest in-flight op of a request id. An empty
// queue is not an error: ProcNull posts and probe-style requests
// complete without ever entering it.
func (x *extractor) complete(ev Event, reqID int64, status *sig.DecodedValue) {
	q := x.pending[reqID]
	if len(q) == 0 {
		return
	}
	x.finish(q[0], ev, status, int64(ev.Rank))
	x.pending[reqID] = q[1:]
}

// completeCall completes the requests a Wait/Test call completed. The
// recorded statuses resolve wildcard sources and tags; these calls
// carry no comm argument, so their status fields were encoded against
// the caller's world rank.
func (x *extractor) completeCall(ev Event, c *mpispec.Completion) {
	a := ev.Call.Args
	c.Slots(ev.Call.Arg, func(id int64, _, k int) {
		var status *sig.DecodedValue
		if k < 0 {
			status = &a[c.Status]
		} else if sts := a[c.Statuses].Arr; k < len(sts) {
			status = &sts[k]
		}
		x.complete(ev, id, status)
	})
}

// finish stamps completion on an in-flight op and resolves wildcard
// receive fields from the recorded status. statusBase is the rank the
// status fields were encoded against (the caller's rank in the
// completing call's communicator; world rank for Wait-family calls,
// which have no comm argument).
func (x *extractor) finish(inst *reqInstance, ev Event, status *sig.DecodedValue, statusBase int64) {
	if inst.send != nil {
		inst.send.TDone, inst.send.DoneIndex = ev.TEnd, ev.Index
	}
	if inst.recv != nil {
		x.completeRecv(inst.recv, ev, status, statusBase)
	}
}

// completeRecv marks a receive complete and fills wildcard source/tag
// from the recorded status.
func (x *extractor) completeRecv(r *RecvOp, ev Event, status *sig.DecodedValue, statusBase int64) {
	r.TDone, r.DoneIndex, r.Completed = ev.TEnd, ev.Index, true
	if status == nil || len(status.Arr) != 2 {
		return
	}
	if r.Src == valAnySource {
		if observed := status.Arr[0].Resolve(statusBase); observed >= 0 && int(observed) < len(r.Comm.group) {
			r.Src = r.Comm.group[observed]
		}
	}
	if r.Tag < 0 {
		r.Tag = status.Arr[1].I
	}
}
