package replay

import (
	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/mpi"
)

// collective replays a collective. Each argument layout is decoded
// once: a non-blocking collective has its blocking twin's layout plus
// a trailing request, which started registers.
func (st *Interp) collective(id mpispec.FuncID, a *args) error {
	p := st.p
	switch id {
	case mpispec.FBarrier, mpispec.FIbarrier:
		cm := a.comm(0)
		switch {
		case !a.ok():
		case id == mpispec.FIbarrier:
			return a.started(p.Ibarrier(cm))
		default:
			return p.Barrier(cm)
		}

	case mpispec.FBcast, mpispec.FIbcast:
		cm := a.comm(4)
		buf, count, dt, root := a.ptr(0), a.num(1), a.dt(2), a.rel(3, cm)
		switch {
		case !a.ok():
		case id == mpispec.FIbcast:
			return a.started(p.Ibcast(buf, count, dt, root, cm))
		default:
			return p.Bcast(buf, count, dt, root, cm)
		}

	// (sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, [root,] comm)
	case mpispec.FGather, mpispec.FIgather, mpispec.FScatter, mpispec.FIscatter,
		mpispec.FAllgather, mpispec.FIallgather, mpispec.FAlltoall, mpispec.FIalltoall:
		ci := 6
		if id == mpispec.FGather || id == mpispec.FIgather || id == mpispec.FScatter || id == mpispec.FIscatter {
			ci = 7
		}
		cm := a.comm(ci)
		sb, sc, sdt, rb, rc, rdt := a.ptr(0), a.num(1), a.dt(2), a.ptr(3), a.num(4), a.dt(5)
		if !a.ok() {
			break
		}
		switch id {
		case mpispec.FGather:
			return p.Gather(sb, sc, sdt, rb, rc, rdt, a.rel(6, cm), cm)
		case mpispec.FIgather:
			return a.started(p.Igather(sb, sc, sdt, rb, rc, rdt, a.rel(6, cm), cm))
		case mpispec.FScatter:
			return p.Scatter(sb, sc, sdt, rb, rc, rdt, a.rel(6, cm), cm)
		case mpispec.FIscatter:
			return a.started(p.Iscatter(sb, sc, sdt, rb, rc, rdt, a.rel(6, cm), cm))
		case mpispec.FAllgather:
			return p.Allgather(sb, sc, sdt, rb, rc, rdt, cm)
		case mpispec.FIallgather:
			return a.started(p.Iallgather(sb, sc, sdt, rb, rc, rdt, cm))
		case mpispec.FAlltoall:
			return p.Alltoall(sb, sc, sdt, rb, rc, rdt, cm)
		default:
			return a.started(p.Ialltoall(sb, sc, sdt, rb, rc, rdt, cm))
		}

	case mpispec.FGatherv:
		cm := a.comm(8)
		if sb, sdt, rb, rdt := a.ptr(0), a.dt(2), a.ptr(3), a.dt(6); a.ok() {
			return p.Gatherv(sb, a.num(1), sdt, rb, a.ints(4), a.ints(5), rdt, a.rel(7, cm), cm)
		}
	case mpispec.FScatterv:
		cm := a.comm(8)
		if sb, sdt, rb, rdt := a.ptr(0), a.dt(3), a.ptr(4), a.dt(6); a.ok() {
			return p.Scatterv(sb, a.ints(1), a.ints(2), sdt, rb, a.num(5), rdt, a.rel(7, cm), cm)
		}
	case mpispec.FAllgatherv:
		cm := a.comm(7)
		if sb, sdt, rb, rdt := a.ptr(0), a.dt(2), a.ptr(3), a.dt(6); a.ok() {
			return p.Allgatherv(sb, a.num(1), sdt, rb, a.ints(4), a.ints(5), rdt, cm)
		}
	case mpispec.FAlltoallv:
		cm := a.comm(8)
		if sb, sdt, rb, rdt := a.ptr(0), a.dt(3), a.ptr(4), a.dt(7); a.ok() {
			return p.Alltoallv(sb, a.ints(1), a.ints(2), sdt, rb, a.ints(5), a.ints(6), rdt, cm)
		}

	// (sendbuf, recvbuf, count, datatype, op, [root,] comm)
	default:
		ci := 5
		if id == mpispec.FReduce || id == mpispec.FIreduce {
			ci = 6
		}
		cm := a.comm(ci)
		sb, rb, count, dt, op := a.ptr(0), a.ptr(1), a.num(2), a.dt(3), a.op(4)
		if !a.ok() {
			break
		}
		switch id {
		case mpispec.FReduce:
			return p.Reduce(sb, rb, count, dt, op, a.rel(5, cm), cm)
		case mpispec.FIreduce:
			return a.started(p.Ireduce(sb, rb, count, dt, op, a.rel(5, cm), cm))
		case mpispec.FAllreduce:
			return p.Allreduce(sb, rb, count, dt, op, cm)
		case mpispec.FIallreduce:
			return a.started(p.Iallreduce(sb, rb, count, dt, op, cm))
		case mpispec.FScan:
			return p.Scan(sb, rb, count, dt, op, cm)
		case mpispec.FExscan:
			return p.Exscan(sb, rb, count, dt, op, cm)
		case mpispec.FReduceScatter:
			return p.ReduceScatter(sb, rb, a.ints(2), dt, op, cm)
		default: // FReduceScatterBlock
			return p.ReduceScatterBlock(sb, rb, count, dt, op, cm)
		}
	}
	return a.err
}

// started registers the request a non-blocking collective returned
// under the symbolic id of its trailing argument.
func (a *args) started(r *mpi.Request, err error) error {
	if err == nil {
		a.st.reqs.Add(a.id(len(a.v)-1), r, false)
	}
	return err
}
