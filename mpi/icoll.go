package mpi

import "github.com/hpcrepro/pilgrim/internal/mpispec"

// Non-blocking collectives: each is its blocking twin's description
// run by icollective, which traces the call with its request at once
// and completes the request from a background goroutine.

// Ibarrier starts a non-blocking barrier.
func (p *Proc) Ibarrier(c *Comm) (*Request, error) {
	return p.icollective(mpispec.FIbarrier, c, func() coll { return barrierColl(c) })
}

// Ibcast starts a non-blocking broadcast.
func (p *Proc) Ibcast(buf Ptr, count int, dt *Datatype, root int, c *Comm) (*Request, error) {
	return p.icollective(mpispec.FIbcast, c, func() coll { return bcastColl(buf, count, dt, root, c) }, dt)
}

// Igather starts a non-blocking gather.
func (p *Proc) Igather(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, root int, c *Comm) (*Request, error) {
	return p.icollective(mpispec.FIgather, c, func() coll {
		return gatherColl(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, c)
	}, sendtype, recvtype)
}

// Iscatter starts a non-blocking scatter.
func (p *Proc) Iscatter(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, root int, c *Comm) (*Request, error) {
	return p.icollective(mpispec.FIscatter, c, func() coll {
		return scatterColl(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, c)
	}, sendtype, recvtype)
}

// Iallgather starts a non-blocking allgather.
func (p *Proc) Iallgather(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, c *Comm) (*Request, error) {
	return p.icollective(mpispec.FIallgather, c, func() coll {
		return allgatherColl(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, c)
	}, sendtype, recvtype)
}

// Ialltoall starts a non-blocking all-to-all.
func (p *Proc) Ialltoall(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, c *Comm) (*Request, error) {
	return p.icollective(mpispec.FIalltoall, c, func() coll {
		return alltoallColl(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, c)
	}, sendtype, recvtype)
}

// Ireduce starts a non-blocking reduce.
func (p *Proc) Ireduce(sendbuf, recvbuf Ptr, count int, dt *Datatype, op *Op, root int, c *Comm) (*Request, error) {
	return p.icollective(mpispec.FIreduce, c, func() coll {
		return reduceColl(sendbuf, recvbuf, count, dt, op, root, c)
	}, dt)
}

// Iallreduce starts a non-blocking allreduce.
func (p *Proc) Iallreduce(sendbuf, recvbuf Ptr, count int, dt *Datatype, op *Op, c *Comm) (*Request, error) {
	return p.icollective(mpispec.FIallreduce, c, func() coll {
		return allreduceColl(sendbuf, recvbuf, count, dt, op, c)
	}, dt)
}
