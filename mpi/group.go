package mpi

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// GroupSize returns the number of ranks in the group.
func (p *Proc) GroupSize(g *Group) int {
	var n int
	args := []Value{vGroup(g), vInt(0)}
	p.icall(mpispec.FGroupSize, args, func() {
		n = len(g.ranks)
		args[1].I = int64(n)
	})
	return n
}

// GroupRank returns the calling process's rank in the group, or
// Undefined if it is not a member.
func (p *Proc) GroupRank(g *Group) int {
	r := Undefined
	args := []Value{vGroup(g), vRank(0)}
	p.icall(mpispec.FGroupRank, args, func() {
		for i, wr := range g.ranks {
			if wr == p.rank {
				r = i
				break
			}
		}
		args[1].I = int64(r)
	})
	return r
}

// GroupIncl builds a new group containing ranks[i] of g, in order.
func (p *Proc) GroupIncl(g *Group, ranks []int) (*Group, error) {
	for _, r := range ranks {
		if r < 0 || r >= len(g.ranks) {
			return nil, fmt.Errorf("mpi: GroupIncl rank %d out of range", r)
		}
	}
	var ng *Group
	args := []Value{vGroup(g), vInt(len(ranks)), vIntArray(ranks), vGroup(nil)}
	p.icall(mpispec.FGroupIncl, args, func() {
		nr := make([]int, len(ranks))
		for i, r := range ranks {
			nr[i] = g.ranks[r]
		}
		ng = &Group{handle: p.newHandle(), ranks: nr}
		args[3] = vGroup(ng)
	})
	return ng, nil
}

// GroupExcl builds a new group with ranks removed, preserving order.
func (p *Proc) GroupExcl(g *Group, ranks []int) (*Group, error) {
	excl := map[int]bool{}
	for _, r := range ranks {
		if r < 0 || r >= len(g.ranks) {
			return nil, fmt.Errorf("mpi: GroupExcl rank %d out of range", r)
		}
		excl[r] = true
	}
	var ng *Group
	args := []Value{vGroup(g), vInt(len(ranks)), vIntArray(ranks), vGroup(nil)}
	p.icall(mpispec.FGroupExcl, args, func() {
		var nr []int
		for i, wr := range g.ranks {
			if !excl[i] {
				nr = append(nr, wr)
			}
		}
		ng = &Group{handle: p.newHandle(), ranks: nr}
		args[3] = vGroup(ng)
	})
	return ng, nil
}

// GroupFree releases a group.
func (p *Proc) GroupFree(g *Group) error {
	if g == nil || g.freed {
		return fmt.Errorf("mpi: GroupFree on invalid group")
	}
	args := []Value{vGroup(g)}
	p.icall(mpispec.FGroupFree, args, func() {
		g.freed = true
	})
	return nil
}

// GroupTranslateRanks maps ranks of g1 to the corresponding ranks in
// g2 (Undefined where absent).
func (p *Proc) GroupTranslateRanks(g1 *Group, ranks1 []int, g2 *Group) ([]int, error) {
	out := make([]int, len(ranks1))
	args := []Value{vGroup(g1), vInt(len(ranks1)), vIntArray(ranks1), vGroup(g2), vIntArray(nil)}
	p.icall(mpispec.FGroupTranslateRanks, args, func() {
		pos := map[int]int{}
		for i, wr := range g2.ranks {
			pos[wr] = i
		}
		for i, r1 := range ranks1 {
			out[i] = Undefined
			if r1 >= 0 && r1 < len(g1.ranks) {
				if r2, ok := pos[g1.ranks[r1]]; ok {
					out[i] = r2
				}
			}
		}
		args[4] = vIntArray(out)
	})
	return out, nil
}

// GroupUnion returns the union of two groups (g1's order first).
func (p *Proc) GroupUnion(g1, g2 *Group) (*Group, error) {
	var ng *Group
	args := []Value{vGroup(g1), vGroup(g2), vGroup(nil)}
	p.icall(mpispec.FGroupUnion, args, func() {
		seen := map[int]bool{}
		var nr []int
		for _, r := range g1.ranks {
			if !seen[r] {
				seen[r] = true
				nr = append(nr, r)
			}
		}
		for _, r := range g2.ranks {
			if !seen[r] {
				seen[r] = true
				nr = append(nr, r)
			}
		}
		ng = &Group{handle: p.newHandle(), ranks: nr}
		args[2] = vGroup(ng)
	})
	return ng, nil
}

// GroupIntersection returns the ranks present in both groups, in g1
// order.
func (p *Proc) GroupIntersection(g1, g2 *Group) (*Group, error) {
	var ng *Group
	args := []Value{vGroup(g1), vGroup(g2), vGroup(nil)}
	p.icall(mpispec.FGroupIntersection, args, func() {
		in2 := map[int]bool{}
		for _, r := range g2.ranks {
			in2[r] = true
		}
		var nr []int
		for _, r := range g1.ranks {
			if in2[r] {
				nr = append(nr, r)
			}
		}
		ng = &Group{handle: p.newHandle(), ranks: nr}
		args[2] = vGroup(ng)
	})
	return ng, nil
}

// GroupDifference returns the ranks of g1 not in g2, in g1 order.
func (p *Proc) GroupDifference(g1, g2 *Group) (*Group, error) {
	var ng *Group
	args := []Value{vGroup(g1), vGroup(g2), vGroup(nil)}
	p.icall(mpispec.FGroupDifference, args, func() {
		in2 := map[int]bool{}
		for _, r := range g2.ranks {
			in2[r] = true
		}
		var nr []int
		for _, r := range g1.ranks {
			if !in2[r] {
				nr = append(nr, r)
			}
		}
		ng = &Group{handle: p.newHandle(), ranks: nr}
		args[2] = vGroup(ng)
	})
	return ng, nil
}
