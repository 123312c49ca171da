package mpi

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// Group is an ordered set of world ranks (a per-process object, as in
// MPI).
type Group struct {
	handle int64
	ranks  []int // world ranks in group-rank order
	freed  bool
}

// Handle returns the runtime handle of the group.
func (g *Group) Handle() int64 { return g.handle }

// Ranks returns the world ranks in group order (callers must not
// modify).
func (g *Group) Ranks() []int { return g.ranks }

// Comm is a communicator as seen by one process: a shared context id,
// the (local) group, and for inter-communicators a remote group.
type Comm struct {
	proc   *Proc
	handle int64
	ctx    int64
	group  []int // world ranks, comm-rank order (local group)
	myRank int   // rank within the local group
	remote []int // remote group for inter-communicators, nil otherwise
	name   string
	freed  bool

	seq    atomic.Int64 // collective-call sequence, per process
	oobSeq atomic.Int64 // out-of-band sequence (tracer bookkeeping)

	cart *cartInfo
}

// Handle returns the per-process handle of the communicator.
func (c *Comm) Handle() int64 { return c.handle }

// Rank returns the calling process's rank in the communicator
// (untraced accessor; the traced call is Proc.CommRank).
func (c *Comm) Rank() int { return c.myRank }

// Size returns the size of the local group (untraced accessor).
func (c *Comm) Size() int { return len(c.group) }

// RemoteSizeRaw returns the remote group size (0 for intra).
func (c *Comm) RemoteSizeRaw() int { return len(c.remote) }

// IsInter reports whether this is an inter-communicator.
func (c *Comm) IsInter() bool { return c.remote != nil }

// Name returns the communicator name.
func (c *Comm) Name() string { return c.name }

// Context returns the shared context id (identical on all members).
func (c *Comm) Context() int64 { return c.ctx }

// GroupRanks returns the local group's world ranks.
func (c *Comm) GroupRanks() []int { return c.group }

// RemoteGroupRanks returns an inter-communicator's remote group's world
// ranks, the ranks its point-to-point calls address (nil for intra).
func (c *Comm) RemoteGroupRanks() []int { return c.remote }

func (c *Comm) checkUsable() error {
	if c == nil {
		return fmt.Errorf("mpi: nil communicator")
	}
	if c.freed {
		return fmt.Errorf("mpi: communicator %q used after free", c.name)
	}
	return nil
}

// --- Rendezvous: the synchronization core for collectives ------------------

type collSlot struct {
	mu       sync.Mutex
	cond     *sync.Cond
	need     int
	arrived  int
	left     int
	contrib  map[int]any
	result   any
	computed bool
	maxClock int64
}

func (w *World) getSlot(key collKey, need int) *collSlot {
	w.collMu.Lock()
	defer w.collMu.Unlock()
	s := w.colls[key]
	if s == nil {
		s = &collSlot{need: need, contrib: make(map[int]any, need)}
		s.cond = sync.NewCond(&s.mu)
		w.colls[key] = s
	}
	return s
}

func (w *World) dropSlot(key collKey) {
	w.collMu.Lock()
	delete(w.colls, key)
	w.collMu.Unlock()
}

// rendezvous synchronizes `need` participants identified by rank (any
// dense or sparse key). The last arriver runs compute over all
// contributions; everyone receives its result and the maximum arrival
// clock. The slot is reclaimed when the last participant leaves.
func (w *World) rendezvous(key collKey, need, rank int, clock int64, contrib any,
	compute func(contrib map[int]any) any) (any, int64) {
	w.progress.Add(1)
	s := w.getSlot(key, need)
	s.mu.Lock()
	s.contrib[rank] = contrib
	s.arrived++
	if clock > s.maxClock {
		s.maxClock = clock
	}
	if s.arrived == s.need {
		if compute != nil {
			s.result = compute(s.contrib)
		}
		s.computed = true
		s.cond.Broadcast()
	} else {
		for !s.computed {
			if w.revoked.Load() {
				// The job halted while we waited for the other members:
				// unwind (the slot leaks, but the world is being torn
				// down anyway).
				s.mu.Unlock()
				panic(jobRevoked{})
			}
			s.cond.Wait()
		}
	}
	res := s.result
	maxClk := s.maxClock
	s.left++
	last := s.left == s.need
	s.mu.Unlock()
	if last {
		w.dropSlot(key)
	}
	return res, maxClk
}

// commRendezvous is a rendezvous over the members of c using its
// per-process collective sequence number. It runs on the rank's own
// goroutine (blocking collectives), so it registers in the deadlock
// registry; the non-blocking variants register via their request's
// wait target instead.
func (p *Proc) commRendezvous(c *Comm, contrib any, compute func(map[int]any) any) (any, int64) {
	seq := c.seq.Add(1)
	key := collKey{ctx: c.ctx, seq: seq}
	defer p.world.setBlocked(p, collTarget(p.world, key, c.group, p.rank, c.name, false))()
	return p.world.rendezvous(key, len(c.group), c.myRank, p.clock.Load(), contrib, compute)
}

// newCommFromSpec builds this process's view of a freshly created
// communicator.
type commSpec struct {
	ctx    int64
	group  []int
	remote []int
	name   string
}

func (p *Proc) newComm(spec commSpec) *Comm {
	my := -1
	for i, r := range spec.group {
		if r == p.rank {
			my = i
			break
		}
	}
	c := &Comm{proc: p, handle: p.newHandle(), ctx: spec.ctx, group: spec.group,
		myRank: my, remote: spec.remote, name: spec.name}
	p.registerComm(c)
	return c
}

// --- Communicator management calls ------------------------------------------

// CommDup duplicates a communicator (collective).
func (p *Proc) CommDup(c *Comm) (*Comm, error) {
	if err := c.checkUsable(); err != nil {
		return nil, err
	}
	var nc *Comm
	args := []Value{vComm(c), vComm(nil)}
	p.icall(mpispec.FCommDup, args, func() {
		res, maxClk := p.commRendezvous(c, nil, func(m map[int]any) any {
			return p.world.ctxSeq.Add(1)
		})
		p.raiseClock(maxClk + costLatency*int64(log2ceil(len(c.group))))
		nc = p.newComm(commSpec{ctx: res.(int64), group: c.group, remote: c.remote, name: c.name + "+dup"})
		args[1].I = nc.handle
	})
	return nc, nil
}

// CommIdup starts a non-blocking duplicate; the new communicator must
// not be used before the request completes.
func (p *Proc) CommIdup(c *Comm) (*Comm, *Request, error) {
	if err := c.checkUsable(); err != nil {
		return nil, nil, err
	}
	// The comm object exists immediately; its ctx is filled in on
	// completion, as with MPI_Comm_idup's deferred semantics.
	nc := &Comm{proc: p, handle: p.newHandle(), group: c.group, myRank: c.myRank,
		remote: c.remote, name: c.name + "+idup"}
	p.registerComm(nc)
	req := p.newRequest()
	args := []Value{vComm(c), vComm(nc), vReq(req)}
	p.icall(mpispec.FCommIdup, args, func() {
		seq := c.seq.Add(1)
		key := collKey{ctx: c.ctx, seq: seq}
		req.target = collTarget(p.world, key, c.group, p.rank, c.name, false)
		clk := p.clock.Load()
		p.goBackground(func() {
			res, maxClk := p.world.rendezvous(key, len(c.group), c.myRank, clk, nil,
				func(m map[int]any) any { return p.world.ctxSeq.Add(1) })
			nc.ctx = res.(int64)
			req.complete(Status{}, maxClk+costLatency*int64(log2ceil(len(c.group))))
		})
	})
	return nc, req, nil
}

// CommSplit partitions a communicator by color; ranks passing the same
// color form a new communicator ordered by (key, old rank). Color
// Undefined yields a nil communicator.
func (p *Proc) CommSplit(c *Comm, color, key int) (*Comm, error) {
	if err := c.checkUsable(); err != nil {
		return nil, err
	}
	var nc *Comm
	args := []Value{vComm(c), vColor(color), vKey(key), vComm(nil)}
	p.icall(mpispec.FCommSplit, args, func() {
		nc = p.splitBody(c, color, key, fmt.Sprintf("%s/split", c.name))
		args[3] = vComm(nc)
	})
	return nc, nil
}

type splitContrib struct {
	color, key, worldRank, oldRank int
}

type splitResult struct {
	ctxByColor   map[int]int64
	groupByColor map[int][]int
}

func (p *Proc) splitBody(c *Comm, color, key int, name string) *Comm {
	contrib := splitContrib{color: color, key: key, worldRank: p.rank, oldRank: c.myRank}
	res, maxClk := p.commRendezvous(c, contrib, func(m map[int]any) any {
		byColor := map[int][]splitContrib{}
		for _, v := range m {
			sc := v.(splitContrib)
			if sc.color == Undefined {
				continue
			}
			byColor[sc.color] = append(byColor[sc.color], sc)
		}
		colors := make([]int, 0, len(byColor))
		for col := range byColor {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		out := splitResult{ctxByColor: map[int]int64{}, groupByColor: map[int][]int{}}
		for _, col := range colors {
			members := byColor[col]
			sort.Slice(members, func(i, j int) bool {
				if members[i].key != members[j].key {
					return members[i].key < members[j].key
				}
				return members[i].oldRank < members[j].oldRank
			})
			ranks := make([]int, len(members))
			for i, sc := range members {
				ranks[i] = sc.worldRank
			}
			out.ctxByColor[col] = p.world.ctxSeq.Add(1)
			out.groupByColor[col] = ranks
		}
		return out
	})
	p.raiseClock(maxClk + costLatency*int64(log2ceil(len(c.group))))
	if color == Undefined {
		return nil
	}
	sr := res.(splitResult)
	return p.newComm(commSpec{ctx: sr.ctxByColor[color], group: sr.groupByColor[color], name: name})
}

// CommSplitType splits by locality; CommTypeShared groups ranks on the
// same simulated node (16 ranks per node).
func (p *Proc) CommSplitType(c *Comm, splitType, key int) (*Comm, error) {
	if err := c.checkUsable(); err != nil {
		return nil, err
	}
	var nc *Comm
	args := []Value{vComm(c), vInt(splitType), vKey(key), vComm(nil)}
	p.icall(mpispec.FCommSplitType, args, func() {
		color := p.rank / 16
		if splitType != CommTypeShared {
			color = Undefined
		}
		nc = p.splitBody(c, color, key, fmt.Sprintf("%s/node", c.name))
		args[3] = vComm(nc)
	})
	return nc, nil
}

// CommCreate builds a communicator from a subgroup. Every member of c
// must call; callers outside the group receive nil.
func (p *Proc) CommCreate(c *Comm, g *Group) (*Comm, error) {
	if err := c.checkUsable(); err != nil {
		return nil, err
	}
	if g == nil || g.freed {
		return nil, fmt.Errorf("mpi: CommCreate with invalid group")
	}
	var nc *Comm
	args := []Value{vComm(c), vGroup(g), vComm(nil)}
	p.icall(mpispec.FCommCreate, args, func() {
		// All members contribute; the group contents come from the
		// caller's group object (identical on all ranks, per MPI).
		res, maxClk := p.commRendezvous(c, nil, func(m map[int]any) any {
			return p.world.ctxSeq.Add(1)
		})
		p.raiseClock(maxClk + costLatency*int64(log2ceil(len(c.group))))
		inGroup := false
		for _, r := range g.ranks {
			if r == p.rank {
				inGroup = true
				break
			}
		}
		if inGroup {
			ranks := make([]int, len(g.ranks))
			copy(ranks, g.ranks)
			nc = p.newComm(commSpec{ctx: res.(int64), group: ranks, name: c.name + "/create"})
		}
		args[2] = vComm(nc)
	})
	return nc, nil
}

// CommFree releases a communicator.
func (p *Proc) CommFree(c *Comm) error {
	if err := c.checkUsable(); err != nil {
		return err
	}
	args := []Value{vComm(c)}
	p.icall(mpispec.FCommFree, args, func() {
		c.freed = true
	})
	return nil
}

// CommGroup returns the local group of the communicator.
func (p *Proc) CommGroup(c *Comm) (*Group, error) {
	if err := c.checkUsable(); err != nil {
		return nil, err
	}
	var g *Group
	args := []Value{vComm(c), vGroup(nil)}
	p.icall(mpispec.FCommGroup, args, func() {
		ranks := make([]int, len(c.group))
		copy(ranks, c.group)
		g = &Group{handle: p.newHandle(), ranks: ranks}
		args[1] = vGroup(g)
	})
	return g, nil
}

// CommCompare compares two communicators.
func (p *Proc) CommCompare(a, b *Comm) (int, error) {
	if err := a.checkUsable(); err != nil {
		return Unequal, err
	}
	if err := b.checkUsable(); err != nil {
		return Unequal, err
	}
	var res int
	args := []Value{vComm(a), vComm(b), vInt(0)}
	p.icall(mpispec.FCommCompare, args, func() {
		switch {
		case a == b || a.ctx == b.ctx:
			res = Ident
		case equalRanks(a.group, b.group):
			res = Congruent
		case sameSet(a.group, b.group):
			res = Similar
		default:
			res = Unequal
		}
		args[2].I = int64(res)
	})
	return res, nil
}

// CommSetName names a communicator.
func (p *Proc) CommSetName(c *Comm, name string) error {
	if err := c.checkUsable(); err != nil {
		return err
	}
	args := []Value{vComm(c), vString(name)}
	p.icall(mpispec.FCommSetName, args, func() {
		c.name = name
	})
	return nil
}

// CommGetName returns the communicator's name.
func (p *Proc) CommGetName(c *Comm) (string, error) {
	if err := c.checkUsable(); err != nil {
		return "", err
	}
	var name string
	args := []Value{vComm(c), vString(""), vInt(0)}
	p.icall(mpispec.FCommGetName, args, func() {
		name = c.name
		args[1].S = name
		args[2].I = int64(len(name))
	})
	return name, nil
}

// CommTestInter reports whether c is an inter-communicator.
func (p *Proc) CommTestInter(c *Comm) (bool, error) {
	if err := c.checkUsable(); err != nil {
		return false, err
	}
	var flag bool
	args := []Value{vComm(c), vInt(0)}
	p.icall(mpispec.FCommTestInter, args, func() {
		flag = c.remote != nil
		args[1].I = b2i(flag)
	})
	return flag, nil
}

// CommRemoteSize returns the size of the remote group of an
// inter-communicator.
func (p *Proc) CommRemoteSize(c *Comm) (int, error) {
	if err := c.checkUsable(); err != nil {
		return 0, err
	}
	if c.remote == nil {
		return 0, fmt.Errorf("mpi: CommRemoteSize on intra-communicator")
	}
	var n int
	args := []Value{vComm(c), vInt(0)}
	p.icall(mpispec.FCommRemoteSize, args, func() {
		n = len(c.remote)
		args[1].I = int64(n)
	})
	return n, nil
}

// IntercommCreate builds an inter-communicator from two disjoint
// intra-communicators bridged by leaders that share peerComm.
func (p *Proc) IntercommCreate(localComm *Comm, localLeader int, peerComm *Comm, remoteLeader, tag int) (*Comm, error) {
	if err := localComm.checkUsable(); err != nil {
		return nil, err
	}
	var nc *Comm
	args := []Value{vComm(localComm), vRank(localLeader), vComm(peerComm), vRank(remoteLeader), vTag(tag), vComm(nil)}
	p.icall(mpispec.FIntercommCreate, args, func() {
		type leaderInfo struct {
			group []int
		}
		var ctx int64
		var remote []int
		if localComm.myRank == localLeader {
			// Leaders meet on an out-of-band slot keyed by peer ctx+tag.
			key := collKey{ctx: peerComm.ctx, seq: int64(tag) | (1 << 40), oob: true}
			remoteLeaderWorld := -1
			if remoteLeader >= 0 && remoteLeader < len(peerComm.group) {
				remoteLeaderWorld = peerComm.group[remoteLeader]
			}
			dereg := p.world.setBlocked(p, &waitTarget{
				detail: fmt.Sprintf("leader exchange, peer comm=%s, tag=%d", peerComm.name, tag),
				peers:  staticPeers(remoteLeaderWorld),
			})
			res, _ := p.world.rendezvous(key, 2, peerComm.myRank, p.clock.Load(),
				leaderInfo{group: localComm.group}, func(m map[int]any) any {
					groups := map[int][]int{}
					for r, v := range m {
						groups[r] = v.(leaderInfo).group
					}
					return map[string]any{"ctx": p.world.ctxSeq.Add(1), "groups": groups}
				})
			dereg()
			rm := res.(map[string]any)
			ctx = rm["ctx"].(int64)
			for r, g := range rm["groups"].(map[int][]int) {
				if r != peerComm.myRank {
					remote = g
				}
			}
		}
		// Broadcast (ctx, remote) within the local comm.
		type bc struct {
			ctx    int64
			remote []int
		}
		var contrib any
		if localComm.myRank == localLeader {
			contrib = bc{ctx: ctx, remote: remote}
		}
		res, maxClk := p.commRendezvous(localComm, contrib, func(m map[int]any) any {
			for _, v := range m {
				if b, ok := v.(bc); ok {
					return b
				}
			}
			return bc{}
		})
		b := res.(bc)
		p.raiseClock(maxClk + costLatency*int64(log2ceil(len(localComm.group))+1))
		group := make([]int, len(localComm.group))
		copy(group, localComm.group)
		nc = p.newComm(commSpec{ctx: b.ctx, group: group, remote: b.remote, name: "intercomm"})
		args[5] = vComm(nc)
	})
	return nc, nil
}

// IntercommMerge merges an inter-communicator into an intra-
// communicator; the group with high=true is ordered after the other.
func (p *Proc) IntercommMerge(c *Comm, high bool) (*Comm, error) {
	if err := c.checkUsable(); err != nil {
		return nil, err
	}
	if c.remote == nil {
		return nil, fmt.Errorf("mpi: IntercommMerge on intra-communicator")
	}
	var nc *Comm
	args := []Value{vComm(c), vInt(int(b2i(high)))}
	args = append(args, vComm(nil))
	p.icall(mpispec.FIntercommMerge, args, func() {
		type mergeContrib struct {
			high      bool
			worldRank int
		}
		need := len(c.group) + len(c.remote)
		seq := c.seq.Add(1)
		key := collKey{ctx: c.ctx, seq: seq}
		members := make([]int, 0, need)
		members = append(members, c.group...)
		members = append(members, c.remote...)
		defer p.world.setBlocked(p, collTarget(p.world, key, members, p.rank, c.name, true))()
		res, maxClk := p.world.rendezvous(key, need, p.rank, p.clock.Load(),
			mergeContrib{high: high, worldRank: p.rank}, func(m map[int]any) any {
				var lows, highs []int
				for _, v := range m {
					mc := v.(mergeContrib)
					if mc.high {
						highs = append(highs, mc.worldRank)
					} else {
						lows = append(lows, mc.worldRank)
					}
				}
				sort.Ints(lows)
				sort.Ints(highs)
				merged := append(lows, highs...)
				return map[string]any{"ctx": p.world.ctxSeq.Add(1), "group": merged}
			})
		rm := res.(map[string]any)
		p.raiseClock(maxClk + costLatency*int64(log2ceil(need)))
		nc = p.newComm(commSpec{ctx: rm["ctx"].(int64), group: rm["group"].([]int), name: "merged"})
		args[2] = vComm(nc)
	})
	return nc, nil
}

func equalRanks(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]bool{}
	for _, r := range a {
		m[r] = true
	}
	for _, r := range b {
		if !m[r] {
			return false
		}
	}
	return true
}

func log2ceil(n int) int {
	k := 0
	for v := 1; v < n; v <<= 1 {
		k++
	}
	return k
}
