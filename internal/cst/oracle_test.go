package cst

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/par"
)

// The merge oracles: the flat first-rank-first merge and the paper's
// explicit log₂P pairwise tree (the structure it times in Figure 8),
// kept here to check Absorb's rank-order fold and Incremental against.

// Merge unifies the tables of all ranks, keeping only globally unique
// call signatures; new terminals are assigned in (first-rank,
// first-occurrence) order.
func Merge(tables []*Table) Merged {
	g := New()
	relabels := make([][]int32, len(tables))
	for r, t := range tables {
		m := make([]int32, len(t.sigs))
		for old, key := range t.sigs {
			term, ok := g.bySig[key]
			if !ok {
				term = int32(len(g.sigs))
				g.bySig[key] = term
				g.sigs = append(g.sigs, key)
				g.acc = append(g.acc, acc{})
			}
			g.acc[term].count += t.acc[old].count
			g.acc[term].durSum += t.acc[old].durSum
			m[old] = term
		}
		relabels[r] = m
	}
	return Merged{Table: g, Relabels: relabels}
}

func identity(n int) []int32 {
	m := make([]int32, n)
	for i := range m {
		m[i] = int32(i)
	}
	return m
}

// composeInPlace rewrites first[k] = second[first[k]] and returns
// first. The caller owns first (it is a leaf identity or a prior
// composition private to this tree node).
func composeInPlace(first, second []int32) []int32 {
	for k, v := range first {
		first[k] = second[v]
	}
	return first
}

// node is one position in the pairwise merge tree's working set: a
// table plus the relabel slices of the ranks folded into it so far.
// owned reports whether the table belongs to the merge (an internal
// node) and may therefore be extended in place; leaf tables are the
// caller's and are never mutated.
type node struct {
	t     *Table
	ranks []int
	maps  [][]int32
	owned bool
}

// leafNode wraps one input table.
func leafNode(rank int, t *Table) *node {
	return &node{t: t, ranks: []int{rank}, maps: [][]int32{identity(t.Len())}}
}

// mergePair folds b into a, producing the parent node. a's terminals
// keep their numbering (its relabel slices transfer unchanged); b's
// entries are appended in first-occurrence order and its relabel
// slices are composed in place. Both children are consumed.
func mergePair(a, b *node) *node {
	dst := a.t
	if !a.owned {
		dst = a.t.Clone()
	}
	mapB, err := dst.Absorb(b.t)
	if err != nil {
		panic(err) // the oracle's tables never overflow
	}
	nn := &node{t: dst, owned: true}
	nn.ranks = append(a.ranks, b.ranks...)
	nn.maps = a.maps
	for _, m := range b.maps {
		nn.maps = append(nn.maps, composeInPlace(m, mapB))
	}
	return nn
}

// MergePairwise is the pairwise tree, sequentially.
func MergePairwise(tables []*Table) Merged {
	return MergePairwiseN(tables, 1)
}

// MergePairwiseN is MergePairwise with each round's pair merges running
// on up to workers goroutines (<= 0 means GOMAXPROCS). The tree shape
// is a pure function of len(tables) and round k+1 only reads round k's
// outputs, so the result is identical for every worker count.
func MergePairwiseN(tables []*Table, workers int) Merged {
	n := len(tables)
	if n == 0 {
		return Merged{Table: New()}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nodes := make([]*node, n)
	par.For(n, workers, func(i int) {
		nodes[i] = leafNode(i, tables[i])
	})
	for len(nodes) > 1 {
		pairs := len(nodes) / 2
		next := make([]*node, 0, pairs+1)
		merged := make([]*node, pairs)
		par.For(pairs, workers, func(i int) {
			merged[i] = mergePair(nodes[2*i], nodes[2*i+1])
		})
		next = append(next, merged...)
		if len(nodes)%2 == 1 {
			next = append(next, nodes[len(nodes)-1])
		}
		nodes = next
	}
	root := nodes[0]
	out := Merged{Table: root.t, Relabels: make([][]int32, n)}
	for j, r := range root.ranks {
		out.Relabels[r] = root.maps[j]
	}
	// The root may still be an unowned leaf (n == 1): hand the caller a
	// table it may treat as its own.
	if !root.owned {
		out.Table = root.t.Clone()
	}
	return out
}

// randomTables builds 1–70 rank tables over overlapping alphabets: a
// shared pool every rank draws from, a neighbourhood pool shared with
// nearby ranks, and a few rank-private signatures, with repeated hits
// so counts and duration sums accumulate.
func randomTables(rng *rand.Rand) []*Table {
	tables := make([]*Table, 1+rng.Intn(70))
	for r := range tables {
		t := New()
		for i, calls := 0, 1+rng.Intn(40); i < calls; i++ {
			var sig string
			switch rng.Intn(4) {
			case 0, 1:
				sig = fmt.Sprintf("shared/%d", rng.Intn(12))
			case 2:
				sig = fmt.Sprintf("near%d/%d", (r+rng.Intn(3))/4, rng.Intn(6))
			default:
				sig = fmt.Sprintf("rank%d/%d", r, rng.Intn(3))
			}
			t.Add([]byte(sig), rng.Int63n(1000))
		}
		tables[r] = t
	}
	return tables
}

// TestAbsorbInRankOrderMatchesPairwise pins the identity the finalize
// walk rests on: absorbing the tables one by one in rank order gives
// the pairwise tree's table (serialized bytes) and every one of its
// relabels, and so does Incremental fed in a random arrival order.
// Each relabel is copied the moment its rank is absorbed, with only
// ranks 0..r in the fold: that it already equals the tree's final one
// is what lets the walk relabel batch by batch.
func TestAbsorbInRankOrderMatchesPairwise(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tables := randomTables(rng)
		n := len(tables)
		want := MergePairwise(tables)

		fold := New()
		early := make([][]int32, n)
		for r, tb := range tables {
			relabel, err := fold.Absorb(tb)
			if err != nil {
				t.Fatal(err)
			}
			early[r] = append([]int32(nil), relabel...)
		}
		checkMerged(t, n, Merged{Table: fold, Relabels: early}, want)
		if !bytes.Equal(fold.Serialize(), want.Table.Serialize()) {
			t.Fatalf("seed %d: folded table serializes differently from the pairwise one", seed)
		}

		inc := NewIncremental(n)
		for _, r := range rng.Perm(n) {
			if err := inc.Add(r, tables[r]); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		checkMerged(t, n, inc.Result(), want)
	}
}
