package analysis

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/replay"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/mpi"
)

// Point-to-point operation extraction: walks one rank's event stream
// and produces every posted send and receive with absolute (world)
// peer ranks, payload bytes, and post/completion times. Requests are
// resolved through the same sig.Window as the replay interpreter's,
// with persistent requests posting again at each Start/Startall, so
// completion calls (Wait/Test families) attach their times and
// recorded statuses to the right posts.

// SendOp is one posted point-to-point send.
type SendOp struct {
	Rank      int // sender world rank
	Index     int // posting call's position in the sender's stream
	DoneIndex int // completing call's position (== Index for blocking)
	Dst       int // receiver world rank
	Tag       int64
	CommID    int64
	Comm      *mpi.Comm
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
	Src       int // sender world rank; mpi.AnySource until resolved
	Tag       int64
	CommID    int64
	Comm      *mpi.Comm
	Count     int64
	Capacity  int64 // posted buffer capacity in bytes
	TPost     int64
	TDone     int64
	Func      mpispec.FuncID
	Completed bool
	Cancelled bool
}

func (r *RecvOp) key() (int, int) { return r.Rank, r.Index }

// request is a live request as analysis sees it: the operation it has
// in flight, if any, and for a persistent request the MPI_*_init call
// that made it, which each MPI_Start posts again.
type request struct {
	send *SendOp
	recv *RecvOp
	init *sig.Decoded
}

// extractor is the per-rank walk state. Its interpreter holds the
// rank's objects on the simulated world.
type extractor struct {
	in    *replay.Interp
	comms map[int64]*mpi.Comm // every communicator a call named, by id
	reqs  sig.Window[*request]

	sends []*SendOp
	recvs []*RecvOp
}

// peers returns the world ranks a communicator's point-to-point calls
// address: its group, or an intercommunicator's remote group.
func peers(cm *mpi.Comm) []int {
	if cm.IsInter() {
		return cm.RemoteGroupRanks()
	}
	return cm.GroupRanks()
}

// step takes one event of the rank's stream, in call order.
func (x *extractor) step(ev Event) error {
	a := ev.Args
	// Naming the communicators in call order binds each
	// MPI_Comm_idup's at its first use, as replay does.
	for k, prm := range mpispec.Spec[ev.Func].Params {
		if prm.Kind == mpispec.KComm && prm.Dir != mpispec.Out {
			if cm, err := x.in.Comm(a[k].I); err == nil {
				x.comms[a[k].I] = cm
			}
		}
	}
	if mpispec.ObjectOf(ev.Func) != nil {
		if err := x.in.Exec(ev.DecodedCall); err != nil {
			return err
		}
	}
	if c := mpispec.CompletionOf(ev.Func); c != nil {
		x.completeCall(ev, c)
		return nil
	}
	if m := mpispec.MessageOf(ev.Func); m != nil {
		return x.post(ev, m)
	}
	switch f := ev.Func; f {
	case mpispec.FStart, mpispec.FStartall:
		ids := a[:1]
		if f == mpispec.FStartall {
			ids = a[1].Arr
		}
		rs, err := x.reqs.Resolve(ids)
		if err != nil {
			return err
		}
		for _, r := range rs {
			if r != nil && r.init != nil {
				if err := x.launch(ev, r.init, mpispec.MessageOf(r.init.Func), r); err != nil {
					return err
				}
			}
		}

	case mpispec.FRequestFree:
		// The operation still completes under the covers; take the
		// free call as the last point it is known to exist.
		if r, err := x.reqs.Free(a[0].I); err == nil {
			x.finish(r, ev, nil, 0)
		}
	case mpispec.FCancel:
		if rs, _ := x.reqs.Resolve(a[:1]); rs[0] != nil {
			if s := rs[0].send; s != nil {
				s.Cancelled = true
			}
			if r := rs[0].recv; r != nil {
				r.Cancelled = true
			}
		}

	default:
		// Non-blocking collectives and MPI_Comm_idup post no message,
		// but their requests hold places in the window.
		if n := len(a) - 1; n >= 0 && a[n].Kind == mpispec.KRequest && mpispec.Spec[f].Params[n].Dir == mpispec.Out {
			x.reqs.Add(a[n].I, &request{}, false)
		}
	}
	return nil
}

// post records the message a posting call sends or receives. A
// blocking call completes it at once, a non-blocking call leaves it in
// flight on the request it creates, and an MPI_*_init call only makes
// the persistent request whose every MPI_Start posts it.
func (x *extractor) post(ev Event, m *mpispec.Message) error {
	a, r := ev.Args, &request{}
	if m.Persistent {
		r.init = &ev.Decoded
		x.reqs.Add(a[m.Request].I, r, true)
		return nil
	}
	if err := x.launch(ev, &ev.Decoded, m, r); err != nil {
		return err
	}
	if m.Request >= 0 {
		x.reqs.Add(a[m.Request].I, r, false)
	} else if r.recv != nil {
		x.finish(r, ev, &a[m.Status], int64(r.recv.Comm.Rank()))
	}
	return nil
}

// launch posts the sides of the message call describes as operations
// of ev, in flight on r, with world-rank peers and payload bytes. A
// ProcNull peer posts nothing: the runtime completes it without an
// envelope, and the metrics layer does not count it.
func (x *extractor) launch(ev Event, call *sig.Decoded, m *mpispec.Message, r *request) error {
	a, commID := call.Args, call.Args[m.Comm].I
	for _, h := range []*mpispec.Half{m.Send, m.Recv} {
		if h == nil || a[h.Peer].IsProcNull() {
			continue
		}
		cm, err := x.in.Comm(commID)
		if err != nil {
			return err
		}
		dt, err := x.in.Datatype(a[h.Datatype].I)
		if err != nil {
			return err
		}
		base, count, group := int64(cm.Rank()), a[h.Count].I, peers(cm)
		bytes := count * int64(dt.Size())
		peer := mpi.AnySource
		if h == m.Send || !a[h.Peer].IsWildcard() {
			p := a[h.Peer].Resolve(base)
			if p < 0 || int(p) >= len(group) {
				return fmt.Errorf("%s %d outside comm of %d", mpispec.Spec[call.Func].Params[h.Peer].Name, p, len(group))
			}
			peer = group[p]
		}
		if h == m.Send {
			r.send = &SendOp{Rank: ev.Rank, Index: ev.Index, DoneIndex: ev.Index,
				Dst: peer, Tag: a[h.Tag].Resolve(base), CommID: commID, Comm: cm, Count: count, Bytes: bytes,
				TPost: ev.TStart, TDone: ev.TEnd, Func: call.Func}
			x.sends = append(x.sends, r.send)
		} else {
			r.recv = &RecvOp{Rank: ev.Rank, Index: ev.Index, DoneIndex: ev.Index,
				Src: peer, Tag: a[h.Tag].Resolve(base), CommID: commID, Comm: cm, Count: count, Capacity: bytes,
				TPost: ev.TStart, TDone: ev.TEnd, Func: call.Func}
			x.recvs = append(x.recvs, r.recv)
		}
	}
	return nil
}

// completeCall completes the requests a Wait/Test call completed. The
// recorded statuses resolve wildcard sources and tags; these calls
// carry no comm argument, so their status fields were encoded against
// the caller's world rank. A request that resolves to no live one is
// skipped: analysis reads salvaged traces too.
func (x *extractor) completeCall(ev Event, c *mpispec.Completion) {
	a := ev.Args
	x.reqs.Complete(c, ev.Decoded, func(r *request, k int) {
		var status *sig.DecodedValue
		if k < 0 {
			status = &a[c.Status]
		} else if sts := a[c.Statuses].Arr; k < len(sts) {
			status = &sts[k]
		}
		x.finish(r, ev, status, int64(ev.Rank))
	})
}

// finish stamps completion on a request's operations in flight, which
// leave it, and fills a wildcard receive's source and tag from the
// recorded status. statusBase is the rank the status fields were
// encoded against (the caller's rank in the completing call's
// communicator; world rank for Wait-family calls, which have no comm
// argument).
func (x *extractor) finish(r *request, ev Event, status *sig.DecodedValue, statusBase int64) {
	if s := r.send; s != nil {
		s.TDone, s.DoneIndex = ev.TEnd, ev.Index
	}
	if rv := r.recv; rv != nil {
		rv.TDone, rv.DoneIndex, rv.Completed = ev.TEnd, ev.Index, true
		if status != nil && len(status.Arr) == 2 {
			group := peers(rv.Comm)
			if observed := status.Arr[0].Resolve(statusBase); rv.Src == mpi.AnySource && observed >= 0 && int(observed) < len(group) {
				rv.Src = group[observed]
			}
			if rv.Tag < 0 {
				rv.Tag = status.Arr[1].I
			}
		}
	}
	r.send, r.recv = nil, nil
}
