package mpi

import (
	"fmt"
	"sort"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// coll is one collective operation as its blocking call and its
// non-blocking twin share it. The two drivers, collective and
// icollective, differ only in how they charge the clock.
type coll struct {
	args    []Value               // the blocking call's arguments; the twin appends its request
	contrib any                   // this rank's contribution
	combine func(map[int]any) any // run by the last member to arrive, over every contribution
	keep    func(res any)         // stores this rank's share of the result; nil keeps nothing
	nbytes  int                   // bytes the blocking call charges
}

// collective runs a blocking collective: the rendezvous, then
// collClock. desc runs once c and dts have passed checkColl.
func (p *Proc) collective(id mpispec.FuncID, c *Comm, desc func() coll, dts ...*Datatype) error {
	if err := p.checkColl(c, dts...); err != nil {
		return err
	}
	op := desc()
	p.icall(id, op.args, func() {
		res, maxClk := p.commRendezvous(c, op.contrib, op.combine)
		p.collClock(maxClk, len(c.group), op.nbytes)
		if op.keep != nil {
			op.keep(res)
		}
	})
	return nil
}

// icollective starts the non-blocking twin of a collective. The call
// draws its sequence number and clock when it is made, so call order
// defines matching as MPI requires; the rendezvous runs on a
// background goroutine, which stores the result and completes the
// request.
func (p *Proc) icollective(id mpispec.FuncID, c *Comm, desc func() coll, dts ...*Datatype) (*Request, error) {
	if err := p.checkColl(c, dts...); err != nil {
		return nil, err
	}
	req := p.newRequest()
	op := desc()
	p.icall(id, append(op.args, vReq(req)), func() {
		key := collKey{ctx: c.ctx, seq: c.seq.Add(1)}
		req.target = collTarget(p.world, key, c.group, p.rank, c.name, false)
		clk := p.clock.Load()
		p.goBackground(func() {
			res, maxClk := p.world.rendezvous(key, len(c.group), c.myRank, clk, op.contrib, op.combine)
			if op.keep != nil {
				op.keep(res)
			}
			done := maxClk + costLatency*int64(log2ceil(len(c.group)))
			if id == mpispec.FIbcast {
				done += int64(op.nbytes) / 10 // the cost model gives Ibcast alone a bandwidth term
			}
			req.complete(Status{}, done)
		})
	})
	return req, nil
}

// collClock advances the caller's clock past a collective that moved
// nbytes with groupwide synchronization at maxClk.
func (p *Proc) collClock(maxClk int64, groupSize, nbytes int) {
	p.raiseClock(maxClk + costLatency*int64(log2ceil(groupSize)) + int64(nbytes)/10)
	p.advanceClock(costCallEntry)
}

// snapshot copies count*size bytes from a buffer.
func snapshot(buf Ptr, nbytes int) []byte {
	data := make([]byte, nbytes)
	copy(data, buf.data)
	return data
}

func (p *Proc) checkColl(c *Comm, dts ...*Datatype) error {
	if err := c.checkUsable(); err != nil {
		return err
	}
	if c.remote != nil {
		return fmt.Errorf("mpi: collectives on inter-communicators are not supported by this simulator")
	}
	for _, dt := range dts {
		if dt != nil {
			if err := dt.checkUsable(); err != nil {
				return err
			}
		}
	}
	if m := p.world.metrics; m != nil {
		m.noteCollective(p.rank)
	}
	return nil
}

// Barrier blocks until all members of c arrive.
func (p *Proc) Barrier(c *Comm) error {
	return p.collective(mpispec.FBarrier, c, func() coll { return barrierColl(c) })
}

// barrierColl describes Barrier and Ibarrier.
func barrierColl(c *Comm) coll { return coll{args: []Value{vComm(c)}} }

// Bcast broadcasts root's buffer to all members.
func (p *Proc) Bcast(buf Ptr, count int, dt *Datatype, root int, c *Comm) error {
	return p.collective(mpispec.FBcast, c, func() coll { return bcastColl(buf, count, dt, root, c) }, dt)
}

// bcastColl describes Bcast and Ibcast.
func bcastColl(buf Ptr, count int, dt *Datatype, root int, c *Comm) coll {
	op := coll{
		args:    []Value{vPtr(buf), vInt(count), vType(dt), vRank(root), vComm(c)},
		combine: rootCompute(root),
		nbytes:  count * dt.size,
	}
	if c.myRank == root {
		op.contrib = snapshot(buf, op.nbytes)
	} else {
		op.keep = keepAll(buf)
	}
	return op
}

// Gather collects equal-size contributions at root (rank order).
func (p *Proc) Gather(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, root int, c *Comm) error {
	return p.collective(mpispec.FGather, c, func() coll {
		return gatherColl(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, c)
	}, sendtype, recvtype)
}

// gatherColl describes Gather and Igather.
func gatherColl(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, root int, c *Comm) coll {
	nbytes := sendcount * sendtype.size
	op := coll{
		args: []Value{vPtr(sendbuf), vInt(sendcount), vType(sendtype),
			vPtr(recvbuf), vInt(recvcount), vType(recvtype), vRank(root), vComm(c)},
		contrib: snapshot(sendbuf, nbytes),
		combine: concatCompute(len(c.group)),
		nbytes:  nbytes,
	}
	if c.myRank == root {
		op.keep = keepAll(recvbuf)
	}
	return op
}

// Gatherv collects variable-size contributions at root.
func (p *Proc) Gatherv(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcounts, displs []int, recvtype *Datatype, root int, c *Comm) error {
	return p.collective(mpispec.FGatherv, c, func() coll {
		nbytes := sendcount * sendtype.size
		op := coll{
			args: []Value{vPtr(sendbuf), vInt(sendcount), vType(sendtype),
				vPtr(recvbuf), vIntArray(recvcounts), vIntArray(displs), vType(recvtype), vRank(root), vComm(c)},
			contrib: snapshot(sendbuf, nbytes),
			combine: identityCompute,
			nbytes:  nbytes,
		}
		if c.myRank == root {
			op.keep = keepVector(recvbuf, recvcounts, displs, recvtype, len(c.group))
		}
		return op
	}, sendtype, recvtype)
}

// Scatter distributes equal blocks of root's buffer (rank order).
func (p *Proc) Scatter(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, root int, c *Comm) error {
	return p.collective(mpispec.FScatter, c, func() coll {
		return scatterColl(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, root, c)
	}, sendtype, recvtype)
}

// scatterColl describes Scatter and Iscatter.
func scatterColl(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, root int, c *Comm) coll {
	blockBytes := sendcount * sendtype.size
	op := coll{
		args: []Value{vPtr(sendbuf), vInt(sendcount), vType(sendtype),
			vPtr(recvbuf), vInt(recvcount), vType(recvtype), vRank(root), vComm(c)},
		combine: rootCompute(root),
		keep:    keepSlice(recvbuf, c.myRank*blockBytes, blockBytes),
		nbytes:  blockBytes,
	}
	if c.myRank == root {
		op.contrib = snapshot(sendbuf, blockBytes*len(c.group))
	}
	return op
}

// Scatterv distributes variable blocks of root's buffer.
func (p *Proc) Scatterv(sendbuf Ptr, sendcounts, displs []int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, root int, c *Comm) error {
	return p.collective(mpispec.FScatterv, c, func() coll {
		op := coll{
			args: []Value{vPtr(sendbuf), vIntArray(sendcounts), vIntArray(displs), vType(sendtype),
				vPtr(recvbuf), vInt(recvcount), vType(recvtype), vRank(root), vComm(c)},
			combine: rootCompute(root),
			keep: func(res any) {
				sc, _ := res.(scattervContrib)
				if b, ok := sc.block(c.myRank); ok {
					copy(recvbuf.data, b)
				}
			},
			nbytes: recvcount * recvtype.size,
		}
		if c.myRank == root {
			op.contrib = newScattervContrib(sendbuf, sendcounts, displs, sendtype)
		}
		return op
	}, sendtype, recvtype)
}

// scattervContrib is a vector sender's whole buffer with its layout.
type scattervContrib struct {
	data   []byte
	counts []int
	displs []int
	elem   int
}

func newScattervContrib(buf Ptr, counts, displs []int, dt *Datatype) scattervContrib {
	return scattervContrib{data: snapshot(buf, len(buf.data)),
		counts: append([]int(nil), counts...), displs: append([]int(nil), displs...),
		elem: dt.size}
}

// block returns the sender's block for rank i, and whether it has one.
func (sc scattervContrib) block(i int) ([]byte, bool) {
	if i >= len(sc.counts) {
		return nil, false
	}
	off := sc.displs[i] * sc.elem
	n := sc.counts[i] * sc.elem
	if off < 0 || off+n > len(sc.data) {
		return nil, false
	}
	return sc.data[off : off+n], true
}

// Allgather gathers equal blocks to every member.
func (p *Proc) Allgather(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, c *Comm) error {
	return p.collective(mpispec.FAllgather, c, func() coll {
		return allgatherColl(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, c)
	}, sendtype, recvtype)
}

// allgatherColl describes Allgather and Iallgather.
func allgatherColl(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, c *Comm) coll {
	nbytes := sendcount * sendtype.size
	return coll{
		args: []Value{vPtr(sendbuf), vInt(sendcount), vType(sendtype),
			vPtr(recvbuf), vInt(recvcount), vType(recvtype), vComm(c)},
		contrib: snapshot(sendbuf, nbytes),
		combine: concatCompute(len(c.group)),
		keep:    keepAll(recvbuf),
		nbytes:  nbytes * len(c.group),
	}
}

// Allgatherv gathers variable blocks to every member.
func (p *Proc) Allgatherv(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcounts, displs []int, recvtype *Datatype, c *Comm) error {
	return p.collective(mpispec.FAllgatherv, c, func() coll {
		nbytes := sendcount * sendtype.size
		return coll{
			args: []Value{vPtr(sendbuf), vInt(sendcount), vType(sendtype),
				vPtr(recvbuf), vIntArray(recvcounts), vIntArray(displs), vType(recvtype), vComm(c)},
			contrib: snapshot(sendbuf, nbytes),
			combine: identityCompute,
			keep:    keepVector(recvbuf, recvcounts, displs, recvtype, len(c.group)),
			nbytes:  nbytes * len(c.group),
		}
	}, sendtype, recvtype)
}

// Alltoall exchanges equal blocks between all pairs.
func (p *Proc) Alltoall(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, c *Comm) error {
	return p.collective(mpispec.FAlltoall, c, func() coll {
		return alltoallColl(sendbuf, sendcount, sendtype, recvbuf, recvcount, recvtype, c)
	}, sendtype, recvtype)
}

// alltoallColl describes Alltoall and Ialltoall.
func alltoallColl(sendbuf Ptr, sendcount int, sendtype *Datatype,
	recvbuf Ptr, recvcount int, recvtype *Datatype, c *Comm) coll {
	blockBytes := sendcount * sendtype.size
	return coll{
		args: []Value{vPtr(sendbuf), vInt(sendcount), vType(sendtype),
			vPtr(recvbuf), vInt(recvcount), vType(recvtype), vComm(c)},
		contrib: snapshot(sendbuf, blockBytes*len(c.group)),
		combine: identityCompute,
		keep: func(res any) {
			m := res.(map[int]any)
			srcOff := c.myRank * blockBytes
			for i := 0; i < len(c.group); i++ {
				data, _ := m[i].([]byte)
				dstOff := i * blockBytes
				if srcOff+blockBytes <= len(data) && dstOff+blockBytes <= len(recvbuf.data) {
					copy(recvbuf.data[dstOff:dstOff+blockBytes], data[srcOff:srcOff+blockBytes])
				}
			}
		},
		nbytes: blockBytes * len(c.group),
	}
}

// Alltoallv exchanges variable blocks between all pairs.
func (p *Proc) Alltoallv(sendbuf Ptr, sendcounts, sdispls []int, sendtype *Datatype,
	recvbuf Ptr, recvcounts, rdispls []int, recvtype *Datatype, c *Comm) error {
	return p.collective(mpispec.FAlltoallv, c, func() coll {
		return coll{
			args: []Value{vPtr(sendbuf), vIntArray(sendcounts), vIntArray(sdispls), vType(sendtype),
				vPtr(recvbuf), vIntArray(recvcounts), vIntArray(rdispls), vType(recvtype), vComm(c)},
			contrib: newScattervContrib(sendbuf, sendcounts, sdispls, sendtype),
			combine: identityCompute,
			keep: func(res any) {
				m := res.(map[int]any)
				for i := 0; i < len(c.group) && i < len(recvcounts); i++ {
					sc, _ := m[i].(scattervContrib)
					b, ok := sc.block(c.myRank)
					if off := rdispls[i] * recvtype.size; ok && off >= 0 && off+len(b) <= len(recvbuf.data) {
						copy(recvbuf.data[off:], b)
					}
				}
			},
			nbytes: sum(recvcounts) * recvtype.size,
		}
	}, sendtype, recvtype)
}

// Reduce combines contributions at root with op.
func (p *Proc) Reduce(sendbuf, recvbuf Ptr, count int, dt *Datatype, op *Op, root int, c *Comm) error {
	return p.collective(mpispec.FReduce, c, func() coll {
		return reduceColl(sendbuf, recvbuf, count, dt, op, root, c)
	}, dt)
}

// reduceColl describes Reduce and Ireduce.
func reduceColl(sendbuf, recvbuf Ptr, count int, dt *Datatype, op *Op, root int, c *Comm) coll {
	nbytes := count * dt.size
	d := coll{
		args:    []Value{vPtr(sendbuf), vPtr(recvbuf), vInt(count), vType(dt), vOp(op), vRank(root), vComm(c)},
		contrib: snapshot(sendbuf, nbytes),
		combine: reduceCompute(op, dt),
		nbytes:  nbytes,
	}
	if c.myRank == root {
		d.keep = keepAll(recvbuf)
	}
	return d
}

// Allreduce combines contributions and distributes the result to all.
func (p *Proc) Allreduce(sendbuf, recvbuf Ptr, count int, dt *Datatype, op *Op, c *Comm) error {
	return p.collective(mpispec.FAllreduce, c, func() coll {
		return allreduceColl(sendbuf, recvbuf, count, dt, op, c)
	}, dt)
}

// allreduceColl describes Allreduce and Iallreduce.
func allreduceColl(sendbuf, recvbuf Ptr, count int, dt *Datatype, op *Op, c *Comm) coll {
	nbytes := count * dt.size
	return coll{
		args:    []Value{vPtr(sendbuf), vPtr(recvbuf), vInt(count), vType(dt), vOp(op), vComm(c)},
		contrib: snapshot(sendbuf, nbytes),
		combine: reduceCompute(op, dt),
		keep:    keepAll(recvbuf),
		nbytes:  nbytes,
	}
}

// ReduceScatterBlock reduces and scatters equal blocks.
func (p *Proc) ReduceScatterBlock(sendbuf, recvbuf Ptr, recvcount int, dt *Datatype, op *Op, c *Comm) error {
	return p.collective(mpispec.FReduceScatterBlock, c, func() coll {
		blockBytes := recvcount * dt.size
		return coll{
			args:    []Value{vPtr(sendbuf), vPtr(recvbuf), vInt(recvcount), vType(dt), vOp(op), vComm(c)},
			contrib: snapshot(sendbuf, blockBytes*len(c.group)),
			combine: reduceCompute(op, dt),
			keep:    keepSlice(recvbuf, c.myRank*blockBytes, blockBytes),
			nbytes:  blockBytes,
		}
	}, dt)
}

// ReduceScatter reduces and scatters variable blocks.
func (p *Proc) ReduceScatter(sendbuf, recvbuf Ptr, recvcounts []int, dt *Datatype, op *Op, c *Comm) error {
	return p.collective(mpispec.FReduceScatter, c, func() coll {
		myBytes := 0
		if c.myRank < len(recvcounts) {
			myBytes = recvcounts[c.myRank] * dt.size
		}
		return coll{
			args:    []Value{vPtr(sendbuf), vPtr(recvbuf), vIntArray(recvcounts), vType(dt), vOp(op), vComm(c)},
			contrib: snapshot(sendbuf, sum(recvcounts)*dt.size),
			combine: reduceCompute(op, dt),
			keep:    keepSlice(recvbuf, sum(recvcounts[:min(c.myRank, len(recvcounts))])*dt.size, myBytes),
			nbytes:  myBytes,
		}
	}, dt)
}

// Scan computes an inclusive prefix reduction.
func (p *Proc) Scan(sendbuf, recvbuf Ptr, count int, dt *Datatype, op *Op, c *Comm) error {
	return p.collective(mpispec.FScan, c, func() coll {
		return scanColl(sendbuf, recvbuf, count, dt, op, c, true)
	}, dt)
}

// Exscan computes an exclusive prefix reduction (rank 0's recvbuf is
// untouched).
func (p *Proc) Exscan(sendbuf, recvbuf Ptr, count int, dt *Datatype, op *Op, c *Comm) error {
	return p.collective(mpispec.FExscan, c, func() coll {
		return scanColl(sendbuf, recvbuf, count, dt, op, c, false)
	}, dt)
}

// scanColl describes Scan (inclusive) and Exscan.
func scanColl(sendbuf, recvbuf Ptr, count int, dt *Datatype, op *Op, c *Comm, inclusive bool) coll {
	nbytes := count * dt.size
	return coll{
		args:    []Value{vPtr(sendbuf), vPtr(recvbuf), vInt(count), vType(dt), vOp(op), vComm(c)},
		contrib: snapshot(sendbuf, nbytes),
		combine: prefixCompute(op, dt, len(c.group), inclusive),
		keep: func(res any) {
			if prefixes := res.([][]byte); c.myRank < len(prefixes) && prefixes[c.myRank] != nil {
				copy(recvbuf.data, prefixes[c.myRank])
			}
		},
		nbytes: nbytes,
	}
}

// --- keep helpers: what a rank stores of a collective's result -----------

// keepAll copies the whole result to dst.
func keepAll(dst Ptr) func(any) {
	return func(res any) {
		data, _ := res.([]byte)
		copy(dst.data, data)
	}
}

// keepSlice copies the result's n bytes at off to dst, if the result
// holds them.
func keepSlice(dst Ptr, off, n int) func(any) {
	return func(res any) {
		if data, ok := res.([]byte); ok && off+n <= len(data) {
			copy(dst.data, data[off:off+n])
		}
	}
}

// keepVector places each member's contribution at its displacement
// in dst, as Gatherv and Allgatherv lay it out.
func keepVector(dst Ptr, counts, displs []int, dt *Datatype, groupSize int) func(any) {
	return func(res any) {
		m := res.(map[int]any)
		for i := 0; i < groupSize && i < len(counts); i++ {
			data, _ := m[i].([]byte)
			off := displs[i] * dt.size
			n := counts[i] * dt.size
			if off >= 0 && off+n <= len(dst.data) {
				copy(dst.data[off:off+n], data)
			}
		}
	}
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// --- compute helpers ---------------------------------------------------------

// identityCompute returns the raw contribution map.
func identityCompute(m map[int]any) any { return m }

// rootCompute returns root's contribution.
func rootCompute(root int) func(map[int]any) any {
	return func(m map[int]any) any { return m[root] }
}

// concatCompute concatenates contributions in rank order.
func concatCompute(n int) func(map[int]any) any {
	return func(m map[int]any) any {
		var out []byte
		for i := 0; i < n; i++ {
			if data, ok := m[i].([]byte); ok {
				out = append(out, data...)
			}
		}
		return out
	}
}

// reduceCompute folds contributions in rank order with op.
func reduceCompute(op *Op, dt *Datatype) func(map[int]any) any {
	return func(m map[int]any) any {
		ranks := make([]int, 0, len(m))
		for r := range m {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		var acc []byte
		for _, r := range ranks {
			data, ok := m[r].([]byte)
			if !ok {
				continue
			}
			if acc == nil {
				acc = append([]byte(nil), data...)
			} else {
				op.combine(acc, data, dt)
			}
		}
		return acc
	}
}

// prefixCompute builds per-rank prefix reductions. inclusive=false
// leaves rank 0's slot nil.
func prefixCompute(op *Op, dt *Datatype, n int, inclusive bool) func(map[int]any) any {
	return func(m map[int]any) any {
		out := make([][]byte, n)
		var acc []byte
		for i := 0; i < n; i++ {
			data, _ := m[i].([]byte)
			if inclusive {
				if acc == nil {
					acc = append([]byte(nil), data...)
				} else {
					op.combine(acc, data, dt)
				}
				out[i] = append([]byte(nil), acc...)
			} else {
				if acc != nil {
					out[i] = append([]byte(nil), acc...)
				}
				if acc == nil {
					acc = append([]byte(nil), data...)
				} else {
					op.combine(acc, data, dt)
				}
			}
		}
		return out
	}
}
