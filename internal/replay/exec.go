package replay

import (
	"fmt"
	"slices"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/mpi"
)

// exec replays one decoded call. The object the call creates is bound
// under the id mpispec.ObjectOf names, and the one an MPI_*_free call
// frees is unbound, here alone.
func (st *Interp) exec(c core.DecodedCall) error {
	a := &args{st: st, v: c.Args}
	err := st.call(c, a)
	if o := mpispec.ObjectOf(c.Func); o != nil && err == nil {
		st.bind(o, a.id(o.Param), a.obj)
	}
	return err
}

// call replays one decoded call; a creating call leaves the object it
// made in a.obj.
func (st *Interp) call(c core.DecodedCall, a *args) error {
	if cmp := mpispec.CompletionOf(c.Func); cmp != nil {
		return st.complete(cmp, c)
	}
	if m := mpispec.MessageOf(c.Func); m != nil {
		return st.post(c.Func, m, a)
	}
	p := st.p
	switch c.Func {
	case mpispec.FInit:
		return p.Init()
	case mpispec.FFinalize:
		return p.Finalize()
	case mpispec.FInitialized:
		p.Initialized()
	case mpispec.FFinalized:
		p.Finalized()
	case mpispec.FGetProcessorName:
		p.GetProcessorName()
	case mpispec.FCommSize:
		if cm := a.comm(0); a.ok() {
			p.CommSize(cm)
		}
	case mpispec.FCommRank:
		if cm := a.comm(0); a.ok() {
			p.CommRank(cm)
		}

	case mpispec.FProbe:
		// Blocking probe: re-execute it (the matching message will
		// arrive, as it did originally).
		if cm := a.comm(2); a.ok() {
			return p.Probe(a.rel(0, cm), a.rel(1, cm), cm, nil)
		}
	case mpispec.FIprobe:
		// Non-blocking polling: replay is a no-op (its outcome depends
		// on arrival timing, which replay does not reproduce).
		return nil

	case mpispec.FRequestFree:
		r, err := st.reqs.Free(a.id(0))
		if err != nil {
			return err
		}
		return p.RequestFree(r)
	case mpispec.FRequestGetStatus, mpispec.FCancel:
		return nil // polling/cancellation: structural no-op on replay

	case mpispec.FStart:
		rs, err := st.reqs.Resolve(a.v[:1])
		if err != nil {
			return err
		}
		return p.Start(rs[0])
	case mpispec.FStartall:
		rs, err := st.reqs.Resolve(a.v[1].Arr)
		if err != nil {
			return err
		}
		return p.Startall(rs)

	case mpispec.FBarrier, mpispec.FIbarrier, mpispec.FBcast, mpispec.FIbcast,
		mpispec.FGather, mpispec.FIgather, mpispec.FScatter, mpispec.FIscatter,
		mpispec.FAllgather, mpispec.FIallgather, mpispec.FAlltoall, mpispec.FIalltoall,
		mpispec.FGatherv, mpispec.FScatterv, mpispec.FAllgatherv, mpispec.FAlltoallv,
		mpispec.FReduce, mpispec.FIreduce, mpispec.FAllreduce, mpispec.FIallreduce,
		mpispec.FScan, mpispec.FExscan, mpispec.FReduceScatter, mpispec.FReduceScatterBlock:
		return st.collective(c.Func, a)

	case mpispec.FCommDup:
		if cm := a.comm(0); a.ok() {
			return a.made(p.CommDup(cm))
		}
	case mpispec.FCommSplit:
		if cm := a.comm(0); a.ok() {
			return a.made(p.CommSplit(cm, a.rel(1, cm), a.rel(2, cm)))
		}
	case mpispec.FCommSplitType:
		if cm := a.comm(0); a.ok() {
			return a.made(p.CommSplitType(cm, a.num(1), a.rel(2, cm)))
		}
	case mpispec.FCommCreate:
		if cm, g := a.comm(0), a.group(1); a.ok() {
			return a.made(p.CommCreate(cm, g))
		}
	case mpispec.FCommFree:
		if cm := a.comm(0); a.ok() {
			return p.CommFree(cm)
		}
	case mpispec.FCommGroup:
		if cm := a.comm(0); a.ok() {
			return a.made(p.CommGroup(cm))
		}
	case mpispec.FCommCompare:
		if c1, c2 := a.comm(0), a.comm(1); a.ok() {
			_, err := p.CommCompare(c1, c2)
			return err
		}
	case mpispec.FCommSetName:
		if cm := a.comm(0); a.ok() {
			return p.CommSetName(cm, a.v[1].S)
		}
	case mpispec.FCommGetName:
		if cm := a.comm(0); a.ok() {
			_, err := p.CommGetName(cm)
			return err
		}
	case mpispec.FCommTestInter:
		if cm := a.comm(0); a.ok() {
			_, err := p.CommTestInter(cm)
			return err
		}
	case mpispec.FCommRemoteSize:
		if cm := a.comm(0); a.ok() {
			_, err := p.CommRemoteSize(cm)
			return err
		}
	case mpispec.FIntercommCreate:
		if local, peer := a.comm(0), a.comm(2); a.ok() {
			return a.made(p.IntercommCreate(local, a.rel(1, local), peer, a.rel(3, local), a.rel(4, local)))
		}
	case mpispec.FIntercommMerge:
		if cm := a.comm(0); a.ok() {
			return a.made(p.IntercommMerge(cm, a.flag(1)))
		}
	case mpispec.FCommIdup:
		if cm := a.comm(0); a.ok() {
			nc, req, err := p.CommIdup(cm)
			if err == nil {
				st.idups = append(st.idups, idup{nc, req})
				st.reqs.Add(a.id(2), req, false)
			}
			return err
		}

	case mpispec.FGroupSize:
		if g := a.group(0); a.ok() {
			p.GroupSize(g)
		}
	case mpispec.FGroupRank:
		if g := a.group(0); a.ok() {
			p.GroupRank(g)
		}
	case mpispec.FGroupIncl, mpispec.FGroupExcl:
		if g := a.group(0); a.ok() {
			incl := p.GroupIncl
			if c.Func == mpispec.FGroupExcl {
				incl = p.GroupExcl
			}
			return a.made(incl(g, a.ints(2)))
		}
	case mpispec.FGroupFree:
		if g := a.group(0); a.ok() {
			return p.GroupFree(g)
		}
	case mpispec.FGroupTranslateRanks:
		if g1, g2 := a.group(0), a.group(3); a.ok() {
			_, err := p.GroupTranslateRanks(g1, a.ints(2), g2)
			return err
		}
	case mpispec.FGroupUnion, mpispec.FGroupIntersection, mpispec.FGroupDifference:
		if g1, g2 := a.group(0), a.group(1); a.ok() {
			set := p.GroupUnion
			switch c.Func {
			case mpispec.FGroupIntersection:
				set = p.GroupIntersection
			case mpispec.FGroupDifference:
				set = p.GroupDifference
			}
			return a.made(set(g1, g2))
		}

	case mpispec.FTypeContiguous:
		if old := a.dt(1); a.ok() {
			return a.made(p.TypeContiguous(a.num(0), old))
		}
	case mpispec.FTypeVector:
		if old := a.dt(3); a.ok() {
			return a.made(p.TypeVector(a.num(0), a.num(1), a.num(2), old))
		}
	case mpispec.FTypeIndexed:
		if old := a.dt(3); a.ok() {
			return a.made(p.TypeIndexed(a.ints(1), a.ints(2), old))
		}
	case mpispec.FTypeCreateStruct:
		handles := a.ints(3)
		members := make([]*mpi.Datatype, len(handles))
		for i, h := range handles {
			// Struct member handles were recorded raw (see the fidelity
			// notes); only a predefined one names a type here.
			if members[i] = mpi.PredefinedType(int64(h) - mpi.Byte.Handle()); members[i] == nil {
				return fmt.Errorf("struct member type %d unknown", h)
			}
		}
		return a.made(p.TypeCreateStruct(a.ints(1), a.ints(2), members))
	case mpispec.FTypeCommit:
		if dt := a.dt(0); a.ok() {
			return p.TypeCommit(dt)
		}
	case mpispec.FTypeFree:
		if dt := a.dt(0); a.ok() {
			return p.TypeFree(dt)
		}
	case mpispec.FTypeSize:
		if dt := a.dt(0); a.ok() {
			p.TypeSize(dt)
		}
	case mpispec.FTypeGetExtent:
		if dt := a.dt(0); a.ok() {
			p.TypeGetExtent(dt)
		}
	case mpispec.FTypeDup:
		if dt := a.dt(0); a.ok() {
			return a.made(p.TypeDup(dt))
		}
	case mpispec.FGetCount, mpispec.FGetElements:
		// Local status queries: re-execute with a status carrying the
		// byte count implied by the recorded result, so the re-traced
		// record reproduces the original outputs.
		dt := a.dt(1)
		if !a.ok() {
			break
		}
		stat := mpi.Status{}
		if arr := a.v[0].Arr; len(arr) == 2 {
			stat.Source = int(arr[0].Resolve(int64(p.Rank())))
			stat.Tag = int(arr[1].I)
		}
		if c.Func == mpispec.FGetCount {
			stat.Count = a.num(2) * dt.Size()
			p.GetCount(stat, dt)
		} else {
			stat.Count = a.num(2) * dt.LaneSize()
			p.GetElements(stat, dt)
		}

	case mpispec.FCartCreate:
		if cm := a.comm(0); a.ok() {
			return a.made(p.CartCreate(cm, a.ints(2), a.bools(3), a.flag(4)))
		}
	case mpispec.FCartCoords:
		if cm := a.comm(0); a.ok() {
			_, err := p.CartCoords(cm, a.rel(1, cm))
			return err
		}
	case mpispec.FCartRank:
		if cm := a.comm(0); a.ok() {
			_, err := p.CartRank(cm, a.ints(1))
			return err
		}
	case mpispec.FCartShift:
		if cm := a.comm(0); a.ok() {
			_, _, err := p.CartShift(cm, a.num(1), a.num(2))
			return err
		}
	case mpispec.FCartGet:
		if cm := a.comm(0); a.ok() {
			_, _, _, err := p.CartGet(cm)
			return err
		}
	case mpispec.FCartdimGet:
		if cm := a.comm(0); a.ok() {
			_, err := p.CartdimGet(cm)
			return err
		}
	case mpispec.FCartSub:
		if cm := a.comm(0); a.ok() {
			return a.made(p.CartSub(cm, a.bools(1)))
		}
	case mpispec.FDimsCreate:
		// Replay the computed output to keep local state consistent.
		return p.DimsCreate(a.num(0), a.num(1), make([]int, a.num(1)))

	case mpispec.FOpCreate:
		return a.made(p.OpCreate(func(dst, src []byte, dt *mpi.Datatype) {}, a.flag(1)))
	case mpispec.FOpFree:
		if op := a.op(0); a.ok() {
			return p.OpFree(op)
		}
	case mpispec.FAbort:
		return fmt.Errorf("trace contains MPI_Abort; refusing to replay it")
	default:
		return fmt.Errorf("replay of %s not implemented", c.Func.Name())
	}
	return a.err
}

// made keeps the object a creating call returned for exec to bind.
func (a *args) made(x any, err error) error {
	a.obj = x
	return err
}

// bind registers object x under id, or forgets id's object when o is
// an MPI_*_free call's. A nil object (a split's color Undefined, a rank
// outside a Cartesian grid, an MPI_Comm_idup's communicator, which
// binds at its first use) registers nothing.
func (st *Interp) bind(o *mpispec.Object, id int64, x any) {
	switch o.Kind {
	case mpispec.KComm:
		keep(st.comms, id, x, o.Free)
	case mpispec.KGroup:
		keep(st.grps, id, x, o.Free)
	case mpispec.KDatatype:
		keep(st.types, id, x, o.Free)
	case mpispec.KOp:
		keep(st.ops, id, x, o.Free)
	}
}

func keep[T comparable](m map[int64]T, id int64, x any, free bool) {
	var none T
	if free {
		delete(m, id)
	} else if v, _ := x.(T); v != none {
		m[id] = v
	}
}

// complete replays a Wait/Test call by waiting for exactly the
// requests it completed: one Waitall when it completed the whole
// request array it names, one Wait per completed request otherwise.
// The window takes the completed requests out; persistent ones stay.
func (st *Interp) complete(cmp *mpispec.Completion, c core.DecodedCall) error {
	var done []*mpi.Request
	rs, completed, err := st.reqs.Complete(cmp, c.Decoded, func(r *mpi.Request, _ int) {
		done = append(done, r)
	})
	if err != nil {
		return err
	}
	for i := range st.idups {
		if slices.Contains(done, st.idups[i].req) {
			st.idups[i].req = nil
		}
	}
	if cmp.Every() && cmp.Requests >= 0 {
		if !completed {
			return nil
		}
		return st.p.Waitall(rs, make([]mpi.Status, len(rs)))
	}
	for _, r := range done {
		if err := st.p.Wait(r, nil); err != nil {
			return err
		}
	}
	return nil
}

// sends and starts are the blocking sends and the calls that post a
// message on a new request.
var (
	sends = map[mpispec.FuncID]func(*mpi.Proc, mpi.Ptr, int, *mpi.Datatype, int, int, *mpi.Comm) error{
		mpispec.FSend: (*mpi.Proc).Send, mpispec.FBsend: (*mpi.Proc).Bsend,
		mpispec.FSsend: (*mpi.Proc).Ssend, mpispec.FRsend: (*mpi.Proc).Rsend,
	}
	starts = map[mpispec.FuncID]func(*mpi.Proc, mpi.Ptr, int, *mpi.Datatype, int, int, *mpi.Comm) (*mpi.Request, error){
		mpispec.FIsend: (*mpi.Proc).Isend, mpispec.FIbsend: (*mpi.Proc).Ibsend,
		mpispec.FIssend: (*mpi.Proc).Issend, mpispec.FIrsend: (*mpi.Proc).Irsend, mpispec.FIrecv: (*mpi.Proc).Irecv,
		mpispec.FSendInit: (*mpi.Proc).SendInit, mpispec.FBsendInit: (*mpi.Proc).BsendInit,
		mpispec.FSsendInit: (*mpi.Proc).SsendInit, mpispec.FRsendInit: (*mpi.Proc).RsendInit,
		mpispec.FRecvInit: (*mpi.Proc).RecvInit,
	}
)

// half is one side of a message, resolved.
type half struct {
	buf       mpi.Ptr
	count     int
	dt        *mpi.Datatype
	peer, tag int
}

// half resolves the side of a message h describes.
func (a *args) half(h *mpispec.Half, cm *mpi.Comm) half {
	return half{a.ptr(h.Buf), a.num(h.Count), a.dt(h.Datatype), a.rel(h.Peer, cm), a.rel(h.Tag, cm)}
}

// post replays one of the calls that post a point-to-point message,
// reading its arguments where m says. A non-blocking or persistent
// call's request enters the window.
func (st *Interp) post(f mpispec.FuncID, m *mpispec.Message, a *args) error {
	p, cm := st.p, a.comm(m.Comm)
	var s, r half
	if m.Send != nil {
		s = a.half(m.Send, cm)
	}
	if m.Recv != nil {
		r = a.half(m.Recv, cm)
	}
	if !a.ok() {
		return a.err
	}
	switch {
	case f == mpispec.FRecv:
		return p.Recv(r.buf, r.count, r.dt, r.peer, r.tag, cm, nil)
	case f == mpispec.FSendrecv:
		return p.Sendrecv(s.buf, s.count, s.dt, s.peer, s.tag, r.buf, r.count, r.dt, r.peer, r.tag, cm, nil)
	case f == mpispec.FSendrecvReplace:
		return p.SendrecvReplace(s.buf, s.count, s.dt, s.peer, s.tag, r.peer, r.tag, cm, nil)
	case m.Request < 0:
		return sends[f](p, s.buf, s.count, s.dt, s.peer, s.tag, cm)
	}
	h := s // the one side a non-blocking or persistent call posts
	if m.Recv != nil {
		h = r
	}
	req, err := starts[f](p, h.buf, h.count, h.dt, h.peer, h.tag, cm)
	if err == nil {
		st.reqs.Add(a.id(m.Request), req, m.Persistent)
	}
	return err
}
