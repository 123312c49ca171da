package mpi

import (
	"bytes"
	"sync/atomic"
	"testing"
)

func TestBarrierSynchronizes(t *testing.T) {
	var before, after atomic.Int32
	run(t, 8, func(p *Proc) {
		before.Add(1)
		p.Barrier(p.World())
		if before.Load() != 8 {
			t.Error("barrier released before all ranks arrived")
		}
		after.Add(1)
	})
	if after.Load() != 8 {
		t.Fatal("not all ranks passed the barrier")
	}
}

func TestBcast(t *testing.T) {
	run(t, 6, func(p *Proc) {
		buf := p.Alloc(16)
		if p.Rank() == 2 {
			for i := 0; i < 4; i++ {
				putInt32(buf.Bytes()[i*4:], int32(i*11))
			}
		}
		if err := p.Bcast(buf.Ptr(0), 4, Int, 2, p.World()); err != nil {
			t.Error(err)
		}
		for i := 0; i < 4; i++ {
			if got := getInt32(buf.Bytes()[i*4:]); got != int32(i*11) {
				t.Errorf("rank %d slot %d = %d", p.Rank(), i, got)
			}
		}
	})
}

func TestGatherScatterRoundtrip(t *testing.T) {
	const n = 5
	run(t, n, func(p *Proc) {
		w := p.World()
		sbuf := p.Alloc(4)
		rbuf := p.Alloc(4 * n)
		putInt32(sbuf.Bytes(), int32(p.Rank()*2))
		if err := p.Gather(sbuf.Ptr(0), 1, Int, rbuf.Ptr(0), 1, Int, 0, w); err != nil {
			t.Error(err)
		}
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				if got := getInt32(rbuf.Bytes()[i*4:]); got != int32(i*2) {
					t.Errorf("gather slot %d = %d", i, got)
				}
				putInt32(rbuf.Bytes()[i*4:], int32(i*3))
			}
		}
		out := p.Alloc(4)
		if err := p.Scatter(rbuf.Ptr(0), 1, Int, out.Ptr(0), 1, Int, 0, w); err != nil {
			t.Error(err)
		}
		if got := getInt32(out.Bytes()); got != int32(p.Rank()*3) {
			t.Errorf("scatter rank %d = %d", p.Rank(), got)
		}
	})
}

func TestGathervScatterv(t *testing.T) {
	const n = 4
	run(t, n, func(p *Proc) {
		w := p.World()
		mycount := p.Rank() + 1 // 1,2,3,4 ints
		sbuf := p.Alloc(4 * mycount)
		for i := 0; i < mycount; i++ {
			putInt32(sbuf.Bytes()[i*4:], int32(p.Rank()*10+i))
		}
		counts := []int{1, 2, 3, 4}
		displs := []int{0, 1, 3, 6}
		rbuf := p.Alloc(4 * 10)
		if err := p.Gatherv(sbuf.Ptr(0), mycount, Int, rbuf.Ptr(0), counts, displs, Int, 0, w); err != nil {
			t.Error(err)
		}
		if p.Rank() == 0 {
			for r := 0; r < n; r++ {
				for i := 0; i < counts[r]; i++ {
					got := getInt32(rbuf.Bytes()[(displs[r]+i)*4:])
					if got != int32(r*10+i) {
						t.Errorf("gatherv rank %d elem %d = %d", r, i, got)
					}
				}
			}
		}
		out := p.Alloc(4 * mycount)
		if err := p.Scatterv(rbuf.Ptr(0), counts, displs, Int, out.Ptr(0), mycount, Int, 0, w); err != nil {
			t.Error(err)
		}
		for i := 0; i < mycount; i++ {
			if got := getInt32(out.Bytes()[i*4:]); got != int32(p.Rank()*10+i) {
				t.Errorf("scatterv rank %d elem %d = %d", p.Rank(), i, got)
			}
		}
	})
}

func TestAllgather(t *testing.T) {
	const n = 7
	run(t, n, func(p *Proc) {
		sbuf := p.Alloc(4)
		rbuf := p.Alloc(4 * n)
		putInt32(sbuf.Bytes(), int32(100+p.Rank()))
		if err := p.Allgather(sbuf.Ptr(0), 1, Int, rbuf.Ptr(0), 1, Int, p.World()); err != nil {
			t.Error(err)
		}
		for i := 0; i < n; i++ {
			if got := getInt32(rbuf.Bytes()[i*4:]); got != int32(100+i) {
				t.Errorf("rank %d slot %d = %d", p.Rank(), i, got)
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	const n = 4
	run(t, n, func(p *Proc) {
		sbuf := p.Alloc(4 * n)
		rbuf := p.Alloc(4 * n)
		for i := 0; i < n; i++ {
			putInt32(sbuf.Bytes()[i*4:], int32(p.Rank()*100+i))
		}
		if err := p.Alltoall(sbuf.Ptr(0), 1, Int, rbuf.Ptr(0), 1, Int, p.World()); err != nil {
			t.Error(err)
		}
		for i := 0; i < n; i++ {
			want := int32(i*100 + p.Rank())
			if got := getInt32(rbuf.Bytes()[i*4:]); got != want {
				t.Errorf("rank %d from %d: got %d want %d", p.Rank(), i, got, want)
			}
		}
	})
}

func TestAlltoallv(t *testing.T) {
	const n = 3
	run(t, n, func(p *Proc) {
		// Rank r sends (r+1) ints to each peer.
		cnt := p.Rank() + 1
		scounts := make([]int, n)
		sdispls := make([]int, n)
		for i := range scounts {
			scounts[i] = cnt
			sdispls[i] = i * cnt
		}
		sbuf := p.Alloc(4 * cnt * n)
		for i := 0; i < cnt*n; i++ {
			putInt32(sbuf.Bytes()[i*4:], int32(p.Rank()*1000+i))
		}
		rcounts := make([]int, n)
		rdispls := make([]int, n)
		off := 0
		for i := 0; i < n; i++ {
			rcounts[i] = i + 1
			rdispls[i] = off
			off += i + 1
		}
		rbuf := p.Alloc(4 * off)
		if err := p.Alltoallv(sbuf.Ptr(0), scounts, sdispls, Int,
			rbuf.Ptr(0), rcounts, rdispls, Int, p.World()); err != nil {
			t.Error(err)
		}
		for i := 0; i < n; i++ {
			for k := 0; k < rcounts[i]; k++ {
				got := getInt32(rbuf.Bytes()[(rdispls[i]+k)*4:])
				want := int32(i*1000 + p.Rank()*(i+1) + k)
				if got != want {
					t.Errorf("rank %d from %d elem %d: got %d want %d", p.Rank(), i, k, got, want)
				}
			}
		}
	})
}

func TestReduceAllreduce(t *testing.T) {
	const n = 6
	run(t, n, func(p *Proc) {
		w := p.World()
		sbuf := p.Alloc(4)
		rbuf := p.Alloc(4)
		putInt32(sbuf.Bytes(), int32(p.Rank()+1))
		if err := p.Reduce(sbuf.Ptr(0), rbuf.Ptr(0), 1, Int, OpSum, 0, w); err != nil {
			t.Error(err)
		}
		want := int32(n * (n + 1) / 2)
		if p.Rank() == 0 && getInt32(rbuf.Bytes()) != want {
			t.Errorf("reduce sum = %d, want %d", getInt32(rbuf.Bytes()), want)
		}
		if err := p.Allreduce(sbuf.Ptr(0), rbuf.Ptr(0), 1, Int, OpMax, w); err != nil {
			t.Error(err)
		}
		if getInt32(rbuf.Bytes()) != int32(n) {
			t.Errorf("allreduce max = %d, want %d", getInt32(rbuf.Bytes()), n)
		}
	})
}

func TestAllreduceDouble(t *testing.T) {
	run(t, 4, func(p *Proc) {
		sbuf := p.Alloc(8)
		rbuf := p.Alloc(8)
		f := float64(p.Rank()) + 0.5
		putF64(sbuf.Bytes(), f)
		if err := p.Allreduce(sbuf.Ptr(0), rbuf.Ptr(0), 1, Double, OpSum, p.World()); err != nil {
			t.Error(err)
		}
		if got := getF64(rbuf.Bytes()); got != 0.5+1.5+2.5+3.5 {
			t.Errorf("double sum = %v", got)
		}
	})
}

func TestScanExscan(t *testing.T) {
	const n = 5
	run(t, n, func(p *Proc) {
		w := p.World()
		sbuf := p.Alloc(4)
		rbuf := p.Alloc(4)
		putInt32(sbuf.Bytes(), int32(p.Rank()+1))
		if err := p.Scan(sbuf.Ptr(0), rbuf.Ptr(0), 1, Int, OpSum, w); err != nil {
			t.Error(err)
		}
		r := p.Rank() + 1
		if got := getInt32(rbuf.Bytes()); got != int32(r*(r+1)/2) {
			t.Errorf("scan rank %d = %d", p.Rank(), got)
		}
		putInt32(rbuf.Bytes(), -1)
		if err := p.Exscan(sbuf.Ptr(0), rbuf.Ptr(0), 1, Int, OpSum, w); err != nil {
			t.Error(err)
		}
		if p.Rank() == 0 {
			if got := getInt32(rbuf.Bytes()); got != -1 {
				t.Errorf("exscan rank 0 buffer modified: %d", got)
			}
		} else {
			if got := getInt32(rbuf.Bytes()); got != int32(r*(r-1)/2) {
				t.Errorf("exscan rank %d = %d", p.Rank(), got)
			}
		}
	})
}

func TestReduceScatterBlock(t *testing.T) {
	const n = 4
	run(t, n, func(p *Proc) {
		sbuf := p.Alloc(4 * n)
		rbuf := p.Alloc(4)
		for i := 0; i < n; i++ {
			putInt32(sbuf.Bytes()[i*4:], int32(i+1))
		}
		if err := p.ReduceScatterBlock(sbuf.Ptr(0), rbuf.Ptr(0), 1, Int, OpSum, p.World()); err != nil {
			t.Error(err)
		}
		if got := getInt32(rbuf.Bytes()); got != int32(n*(p.Rank()+1)) {
			t.Errorf("rank %d got %d", p.Rank(), got)
		}
	})
}

func TestNonblockingCollectives(t *testing.T) {
	const n = 4
	run(t, n, func(p *Proc) {
		w := p.World()
		// Ibarrier
		req, err := p.Ibarrier(w)
		if err != nil {
			t.Fatal(err)
		}
		p.Wait(req, nil)
		// Ibcast
		buf := p.Alloc(4)
		if p.Rank() == 0 {
			putInt32(buf.Bytes(), 77)
		}
		req, _ = p.Ibcast(buf.Ptr(0), 1, Int, 0, w)
		p.Wait(req, nil)
		if getInt32(buf.Bytes()) != 77 {
			t.Errorf("Ibcast rank %d = %d", p.Rank(), getInt32(buf.Bytes()))
		}
		// Iallreduce
		sbuf := p.Alloc(4)
		rbuf := p.Alloc(4)
		putInt32(sbuf.Bytes(), 1)
		req, _ = p.Iallreduce(sbuf.Ptr(0), rbuf.Ptr(0), 1, Int, OpSum, w)
		p.Wait(req, nil)
		if getInt32(rbuf.Bytes()) != n {
			t.Errorf("Iallreduce = %d", getInt32(rbuf.Bytes()))
		}
		// Iallgather
		all := p.Alloc(4 * n)
		putInt32(sbuf.Bytes(), int32(p.Rank()))
		req, _ = p.Iallgather(sbuf.Ptr(0), 1, Int, all.Ptr(0), 1, Int, w)
		p.Wait(req, nil)
		for i := 0; i < n; i++ {
			if getInt32(all.Bytes()[i*4:]) != int32(i) {
				t.Errorf("Iallgather slot %d", i)
			}
		}
		// Ialltoall
		sb := p.Alloc(4 * n)
		rb := p.Alloc(4 * n)
		for i := 0; i < n; i++ {
			putInt32(sb.Bytes()[i*4:], int32(p.Rank()*10+i))
		}
		req, _ = p.Ialltoall(sb.Ptr(0), 1, Int, rb.Ptr(0), 1, Int, w)
		p.Wait(req, nil)
		for i := 0; i < n; i++ {
			if getInt32(rb.Bytes()[i*4:]) != int32(i*10+p.Rank()) {
				t.Errorf("Ialltoall slot %d", i)
			}
		}
		// Igather / Iscatter / Ireduce
		req, _ = p.Igather(sbuf.Ptr(0), 1, Int, all.Ptr(0), 1, Int, 0, w)
		p.Wait(req, nil)
		req, _ = p.Iscatter(all.Ptr(0), 1, Int, rbuf.Ptr(0), 1, Int, 0, w)
		p.Wait(req, nil)
		req, _ = p.Ireduce(sbuf.Ptr(0), rbuf.Ptr(0), 1, Int, OpMin, 0, w)
		p.Wait(req, nil)
	})
}

func TestCollectivesOnSubComm(t *testing.T) {
	run(t, 6, func(p *Proc) {
		w := p.World()
		sub, err := p.CommSplit(w, p.Rank()%2, p.Rank())
		if err != nil {
			t.Fatal(err)
		}
		sbuf := p.Alloc(4)
		rbuf := p.Alloc(4)
		putInt32(sbuf.Bytes(), 1)
		if err := p.Allreduce(sbuf.Ptr(0), rbuf.Ptr(0), 1, Int, OpSum, sub); err != nil {
			t.Fatal(err)
		}
		if got := getInt32(rbuf.Bytes()); got != 3 {
			t.Errorf("subcomm allreduce = %d, want 3", got)
		}
	})
}

func TestCollectiveOrderIndependentAcrossComms(t *testing.T) {
	// Two communicators used in interleaved order must not cross-match.
	run(t, 4, func(p *Proc) {
		w := p.World()
		dup, _ := p.CommDup(w)
		a := p.Alloc(4)
		b := p.Alloc(4)
		putInt32(a.Bytes(), 1)
		putInt32(b.Bytes(), 2)
		ra := p.Alloc(4)
		rb := p.Alloc(4)
		if p.Rank()%2 == 0 {
			p.Allreduce(a.Ptr(0), ra.Ptr(0), 1, Int, OpSum, w)
			p.Allreduce(b.Ptr(0), rb.Ptr(0), 1, Int, OpSum, dup)
		} else {
			// Same order is required per comm, but interleaving with
			// other comms' traffic is fine.
			p.Allreduce(a.Ptr(0), ra.Ptr(0), 1, Int, OpSum, w)
			p.Allreduce(b.Ptr(0), rb.Ptr(0), 1, Int, OpSum, dup)
		}
		if getInt32(ra.Bytes()) != 4 || getInt32(rb.Bytes()) != 8 {
			t.Errorf("cross-comm mixup: %d %d", getInt32(ra.Bytes()), getInt32(rb.Bytes()))
		}
	})
}

func TestInterCommCollectiveRejected(t *testing.T) {
	run(t, 4, func(p *Proc) {
		w := p.World()
		half, _ := p.CommSplit(w, p.Rank()/2, p.Rank())
		remoteLeader := 2
		if p.Rank() >= 2 {
			remoteLeader = 0
		}
		inter, err := p.IntercommCreate(half, 0, w, remoteLeader, 42)
		if err != nil {
			t.Fatal(err)
		}
		buf := p.Alloc(4)
		if err := p.Barrier(inter); err == nil {
			t.Error("collective on intercomm should be rejected")
		}
		_ = buf
	})
}

func putF64(b []byte, v float64) {
	putInt64(b, int64FromF64(v))
}

func getF64(b []byte) float64 { return f64FromInt64(getInt64(b)) }

// TestCollectiveTwins requires each non-blocking collective, completed
// by Wait, to leave every rank's receive buffer exactly as its blocking
// twin does on the same inputs: for root 0 and the last rank, on the
// world and on a 3-rank split.
func TestCollectiveTwins(t *testing.T) {
	type call func(p *Proc, send, recv Ptr, root int, c *Comm) error
	type icall func(p *Proc, send, recv Ptr, root int, c *Comm) (*Request, error)
	const count = 2
	twins := []struct {
		name     string
		blocking call
		start    icall
	}{
		{"Barrier",
			func(p *Proc, s, r Ptr, root int, c *Comm) error { return p.Barrier(c) },
			func(p *Proc, s, r Ptr, root int, c *Comm) (*Request, error) { return p.Ibarrier(c) }},
		{"Bcast",
			func(p *Proc, s, r Ptr, root int, c *Comm) error { return p.Bcast(r, count, Int, root, c) },
			func(p *Proc, s, r Ptr, root int, c *Comm) (*Request, error) { return p.Ibcast(r, count, Int, root, c) }},
		{"Gather",
			func(p *Proc, s, r Ptr, root int, c *Comm) error {
				return p.Gather(s, count, Int, r, count, Int, root, c)
			},
			func(p *Proc, s, r Ptr, root int, c *Comm) (*Request, error) {
				return p.Igather(s, count, Int, r, count, Int, root, c)
			}},
		{"Scatter",
			func(p *Proc, s, r Ptr, root int, c *Comm) error {
				return p.Scatter(s, count, Int, r, count, Int, root, c)
			},
			func(p *Proc, s, r Ptr, root int, c *Comm) (*Request, error) {
				return p.Iscatter(s, count, Int, r, count, Int, root, c)
			}},
		{"Allgather",
			func(p *Proc, s, r Ptr, root int, c *Comm) error { return p.Allgather(s, count, Int, r, count, Int, c) },
			func(p *Proc, s, r Ptr, root int, c *Comm) (*Request, error) {
				return p.Iallgather(s, count, Int, r, count, Int, c)
			}},
		{"Alltoall",
			func(p *Proc, s, r Ptr, root int, c *Comm) error { return p.Alltoall(s, count, Int, r, count, Int, c) },
			func(p *Proc, s, r Ptr, root int, c *Comm) (*Request, error) {
				return p.Ialltoall(s, count, Int, r, count, Int, c)
			}},
		{"Reduce",
			func(p *Proc, s, r Ptr, root int, c *Comm) error { return p.Reduce(s, r, count, Int, OpSum, root, c) },
			func(p *Proc, s, r Ptr, root int, c *Comm) (*Request, error) {
				return p.Ireduce(s, r, count, Int, OpSum, root, c)
			}},
		{"Allreduce",
			func(p *Proc, s, r Ptr, root int, c *Comm) error { return p.Allreduce(s, r, count, Int, OpSum, c) },
			func(p *Proc, s, r Ptr, root int, c *Comm) (*Request, error) {
				return p.Iallreduce(s, r, count, Int, OpSum, c)
			}},
	}
	const n = 6
	var moved [8][2][2]atomic.Int32 // ranks whose buffer the blocking call changed
	run(t, n, func(p *Proc) {
		split, err := p.CommSplit(p.World(), p.Rank()/3, p.Rank())
		if err != nil {
			t.Error(err)
			return
		}
		for ci, c := range []*Comm{p.World(), split} {
			g := c.Size()
			send, recv := p.Alloc(4*count*g), p.Alloc(4*count*g)
			for k, tw := range twins {
				for ri, root := range []int{0, g - 1} {
					// prep fills the inputs; a root's receive buffer
					// holds the data it broadcasts.
					prep := func() {
						for i := 0; i < count*g; i++ {
							putInt32(send.Bytes()[4*i:], int32(1000*k+100*c.Rank()+i))
							putInt32(recv.Bytes()[4*i:], -1)
						}
						if c.Rank() == root {
							copy(recv.Bytes(), send.Bytes())
						}
					}
					prep()
					before := append([]byte(nil), recv.Bytes()...)
					if err := tw.blocking(p, send.Ptr(0), recv.Ptr(0), root, c); err != nil {
						t.Errorf("%s: %v", tw.name, err)
						return
					}
					want := append([]byte(nil), recv.Bytes()...)
					if !bytes.Equal(want, before) {
						moved[k][ci][ri].Add(1)
					}
					prep()
					req, err := tw.start(p, send.Ptr(0), recv.Ptr(0), root, c)
					if err == nil {
						err = p.Wait(req, nil)
					}
					if err != nil {
						t.Errorf("non-blocking %s: %v", tw.name, err)
						return
					}
					if !bytes.Equal(recv.Bytes(), want) {
						t.Errorf("comm %d root %d rank %d: non-blocking %s left %v, blocking %v",
							ci, root, c.Rank(), tw.name, recv.Bytes(), want)
					}
				}
			}
		}
	})
	for k, tw := range twins[1:] {
		for ci := range moved[k+1] {
			for ri := range moved[k+1][ci] {
				if moved[k+1][ci][ri].Load() == 0 {
					t.Errorf("%s on comm %d, root case %d: no rank's buffer changed", tw.name, ci, ri)
				}
			}
		}
	}
}
