package replay

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/mpi"
)

// exec replays one decoded call.
func (st *Interp) exec(c core.DecodedCall) error {
	if cmp := mpispec.CompletionOf(c.Func); cmp != nil {
		return st.complete(cmp, c)
	}
	p := st.p
	a := &args{st: st, v: c.Args}
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

	case mpispec.FSend, mpispec.FBsend, mpispec.FSsend, mpispec.FRsend, mpispec.FRecv,
		mpispec.FIsend, mpispec.FIbsend, mpispec.FIssend, mpispec.FIrsend, mpispec.FIrecv,
		mpispec.FSendInit, mpispec.FBsendInit, mpispec.FSsendInit, mpispec.FRsendInit, mpispec.FRecvInit:
		return st.p2p(c.Func, a)
	case mpispec.FSendrecv:
		cm := a.comm(10)
		if sb, sdt, rb, rdt := a.ptr(0), a.dt(2), a.ptr(5), a.dt(7); a.ok() {
			return p.Sendrecv(sb, a.num(1), sdt, a.rel(3, cm), a.rel(4, cm),
				rb, a.num(6), rdt, a.rel(8, cm), a.rel(9, cm), cm, nil)
		}
	case mpispec.FSendrecvReplace:
		cm := a.comm(7)
		if buf, dt := a.ptr(0), a.dt(2); a.ok() {
			return p.SendrecvReplace(buf, a.num(1), dt, a.rel(3, cm), a.rel(4, cm), a.rel(5, cm), a.rel(6, cm), cm, nil)
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
		r, err := st.popReq(a.id(0))
		if err != nil {
			return err
		}
		delete(st.persistent, r)
		st.dropReq(a.id(0), r)
		return p.RequestFree(r)
	case mpispec.FRequestGetStatus, mpispec.FCancel:
		return nil // polling/cancellation: structural no-op on replay

	case mpispec.FStart:
		r, err := st.popReq(a.id(0)) // persistent: not consumed
		if err != nil {
			return err
		}
		return p.Start(r)
	case mpispec.FStartall:
		rs, err := st.peekReqs(a.v[1].Arr)
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
			nc, err := p.CommDup(cm)
			return bind(st.comms, a.id(1), nc, err)
		}
	case mpispec.FCommSplit:
		if cm := a.comm(0); a.ok() {
			nc, err := p.CommSplit(cm, a.rel(1, cm), a.rel(2, cm))
			return bind(st.comms, a.id(3), nc, err)
		}
	case mpispec.FCommSplitType:
		if cm := a.comm(0); a.ok() {
			nc, err := p.CommSplitType(cm, a.num(1), a.rel(2, cm))
			return bind(st.comms, a.id(3), nc, err)
		}
	case mpispec.FCommCreate:
		if cm, g := a.comm(0), a.group(1); a.ok() {
			nc, err := p.CommCreate(cm, g)
			return bind(st.comms, a.id(2), nc, err)
		}
	case mpispec.FCommFree:
		if cm := a.comm(0); a.ok() {
			return p.CommFree(cm)
		}
	case mpispec.FCommGroup:
		if cm := a.comm(0); a.ok() {
			g, err := p.CommGroup(cm)
			return bind(st.grps, a.id(1), g, err)
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
			nc, err := p.IntercommCreate(local, a.rel(1, local), peer, a.rel(3, local), a.rel(4, local))
			return bind(st.comms, a.id(5), nc, err)
		}
	case mpispec.FIntercommMerge:
		if cm := a.comm(0); a.ok() {
			nc, err := p.IntercommMerge(cm, a.flag(1))
			return bind(st.comms, a.id(2), nc, err)
		}
	case mpispec.FCommIdup:
		return fmt.Errorf("MPI_Comm_idup replay is not supported")

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
			ng, err := incl(g, a.ints(2))
			return bind(st.grps, a.id(3), ng, err)
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
			ng, err := set(g1, g2)
			return bind(st.grps, a.id(2), ng, err)
		}

	case mpispec.FTypeContiguous:
		if old := a.dt(1); a.ok() {
			nt, err := p.TypeContiguous(a.num(0), old)
			return bind(st.types, a.id(2), nt, err)
		}
	case mpispec.FTypeVector:
		if old := a.dt(3); a.ok() {
			nt, err := p.TypeVector(a.num(0), a.num(1), a.num(2), old)
			return bind(st.types, a.id(4), nt, err)
		}
	case mpispec.FTypeIndexed:
		if old := a.dt(3); a.ok() {
			nt, err := p.TypeIndexed(a.ints(1), a.ints(2), old)
			return bind(st.types, a.id(4), nt, err)
		}
	case mpispec.FTypeCreateStruct:
		handles := a.ints(3)
		members := make([]*mpi.Datatype, len(handles))
		for i, h := range handles {
			// Struct member handles were recorded as raw values; map
			// predefined ones (the common case in traces we replay).
			dt, ok := st.types[int64(h)-16]
			if !ok {
				return fmt.Errorf("struct member type %d unknown", h)
			}
			members[i] = dt
		}
		nt, err := p.TypeCreateStruct(a.ints(1), a.ints(2), members)
		return bind(st.types, a.id(4), nt, err)
	case mpispec.FTypeCommit:
		if dt := a.dt(0); a.ok() {
			return p.TypeCommit(dt)
		}
	case mpispec.FTypeFree:
		if dt := a.dt(0); a.ok() {
			delete(st.types, a.id(0))
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
			nt, err := p.TypeDup(dt)
			return bind(st.types, a.id(1), nt, err)
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
			nc, err := p.CartCreate(cm, a.ints(2), a.bools(3), a.flag(4))
			return bind(st.comms, a.id(5), nc, err)
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
			nc, err := p.CartSub(cm, a.bools(1))
			return bind(st.comms, a.id(2), nc, err)
		}
	case mpispec.FDimsCreate:
		// Replay the computed output to keep local state consistent.
		return p.DimsCreate(a.num(0), a.num(1), make([]int, a.num(1)))

	case mpispec.FOpCreate:
		op, err := p.OpCreate(func(dst, src []byte, dt *mpi.Datatype) {}, a.flag(1))
		return bind(st.ops, a.id(2), op, err)
	case mpispec.FOpFree:
		if op := a.op(0); a.ok() {
			delete(st.ops, a.id(0))
			return p.OpFree(op)
		}
	case mpispec.FAbort:
		return fmt.Errorf("trace contains MPI_Abort; refusing to replay it")
	default:
		return fmt.Errorf("replay of %s not implemented", c.Func.Name())
	}
	return a.err
}

// bind registers the object a creating call returned under its
// symbolic id. A nil object (a split's color Undefined, a rank outside
// a Cartesian grid) registers nothing.
func bind[T comparable](m map[int64]T, id int64, x T, err error) error {
	var none T
	if err == nil && x != none {
		m[id] = x
	}
	return err
}

// complete replays a Wait/Test call by waiting for exactly the
// requests it completed: one Waitall when it completed the whole
// request array it names, one Wait per completed request otherwise.
// The completed requests leave the live window; persistent ones stay.
func (st *Interp) complete(cmp *mpispec.Completion, c core.DecodedCall) error {
	var ids []sig.DecodedValue
	if cmp.Requests >= 0 {
		ids = c.Args[cmp.Requests].Arr
	} else {
		ids = c.Args[cmp.Request : cmp.Request+1] // MPI_Wait's and MPI_Test's one request
	}
	rs, err := st.peekReqs(ids)
	if err != nil {
		return err
	}
	var done []*mpi.Request
	completed := cmp.Slots(c.Arg, func(id int64, slot, _ int) {
		if r := rs[slot]; r != nil {
			st.consume(id, r)
			done = append(done, r)
		}
	})
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

// p2p replays the calls with the point-to-point layout (buf, count,
// datatype, peer, tag, comm). A non-blocking or persistent call has its
// blocking twin's layout plus a trailing request.
func (st *Interp) p2p(id mpispec.FuncID, a *args) error {
	cm := a.comm(5)
	buf, dt := a.ptr(0), a.dt(2)
	if !a.ok() {
		return a.err
	}
	p, count, peer, tag := st.p, a.num(1), a.rel(3, cm), a.rel(4, cm)
	var start func(mpi.Ptr, int, *mpi.Datatype, int, int, *mpi.Comm) (*mpi.Request, error)
	persistent := false
	switch id {
	case mpispec.FSend:
		return p.Send(buf, count, dt, peer, tag, cm)
	case mpispec.FBsend:
		return p.Bsend(buf, count, dt, peer, tag, cm)
	case mpispec.FSsend:
		return p.Ssend(buf, count, dt, peer, tag, cm)
	case mpispec.FRsend:
		return p.Rsend(buf, count, dt, peer, tag, cm)
	case mpispec.FRecv:
		return p.Recv(buf, count, dt, peer, tag, cm, nil)
	case mpispec.FIsend:
		start = p.Isend
	case mpispec.FIbsend:
		start = p.Ibsend
	case mpispec.FIssend:
		start = p.Issend
	case mpispec.FIrsend:
		start = p.Irsend
	case mpispec.FIrecv:
		start = p.Irecv
	case mpispec.FSendInit:
		start, persistent = p.SendInit, true
	case mpispec.FBsendInit:
		start, persistent = p.BsendInit, true
	case mpispec.FSsendInit:
		start, persistent = p.SsendInit, true
	case mpispec.FRsendInit:
		start, persistent = p.RsendInit, true
	default: // FRecvInit
		start, persistent = p.RecvInit, true
	}
	r, err := start(buf, count, dt, peer, tag, cm)
	if err == nil {
		st.pushReq(a.id(6), r, persistent)
	}
	return err
}
