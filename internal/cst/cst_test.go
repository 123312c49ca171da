package cst

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddDedup(t *testing.T) {
	tb := New()
	a := tb.Add([]byte("sigA"), 100)
	b := tb.Add([]byte("sigB"), 200)
	a2 := tb.Add([]byte("sigA"), 300)
	if a != a2 {
		t.Fatalf("duplicate signature got different terminal: %d %d", a, a2)
	}
	if a == b {
		t.Fatal("distinct signatures share a terminal")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if tb.Calls() != 3 {
		t.Fatalf("Calls = %d", tb.Calls())
	}
	if avg := tb.AvgDuration(a); avg != 200 {
		t.Fatalf("avg duration = %d, want 200", avg)
	}
	if !bytes.Equal(tb.Sig(b), []byte("sigB")) {
		t.Fatal("Sig roundtrip failed")
	}
}

func TestLookupNoInsert(t *testing.T) {
	tb := New()
	if _, ok := tb.Lookup([]byte("x")); ok {
		t.Fatal("lookup of absent signature succeeded")
	}
	tb.Add([]byte("x"), 1)
	if term, ok := tb.Lookup([]byte("x")); !ok || term != 0 {
		t.Fatal("lookup failed after insert")
	}
}

func TestMergeFigure3(t *testing.T) {
	// The paper's Figure 3: rank 0 has {comm1, comm2}, rank 1 has
	// {comm1, comm3}; merged has 3 entries, comm3 relabelled.
	r0 := New()
	r0.Add([]byte("barrier(comm1)"), 10)
	r0.Add([]byte("barrier(comm2)"), 10)
	r1 := New()
	r1.Add([]byte("barrier(comm1)"), 10)
	r1.Add([]byte("barrier(comm3)"), 10)

	m := Merge([]*Table{r0, r1})
	if m.Table.Len() != 3 {
		t.Fatalf("merged table has %d entries, want 3", m.Table.Len())
	}
	// Rank 0's terminals unchanged.
	if m.Relabels[0][0] != 0 || m.Relabels[0][1] != 1 {
		t.Errorf("rank 0 relabels: %v", m.Relabels[0])
	}
	// Rank 1: comm1 keeps 0, comm3 becomes 2.
	if m.Relabels[1][0] != 0 || m.Relabels[1][1] != 2 {
		t.Errorf("rank 1 relabels: %v", m.Relabels[1])
	}
	// Counts aggregated.
	if m.Table.Calls() != 4 {
		t.Errorf("merged calls = %d", m.Table.Calls())
	}
}

func TestMergeIdenticalTablesIsIdentity(t *testing.T) {
	mk := func() *Table {
		tb := New()
		for i := 0; i < 10; i++ {
			tb.Add([]byte{byte(i)}, int64(i))
		}
		return tb
	}
	tables := []*Table{mk(), mk(), mk(), mk()}
	m := Merge(tables)
	if m.Table.Len() != 10 {
		t.Fatalf("merged size %d", m.Table.Len())
	}
	for r := range tables {
		for old, nw := range m.Relabels[r] {
			if int32(old) != nw {
				t.Fatalf("rank %d: identical tables should relabel identically (%d->%d)", r, old, nw)
			}
		}
	}
}

func TestMergePairwiseEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tables []*Table
	for r := 0; r < 9; r++ { // odd count exercises the stray-node path
		tb := New()
		for i := 0; i < 20; i++ {
			sig := []byte(fmt.Sprintf("sig-%d", rng.Intn(12)))
			tb.Add(sig, int64(i))
		}
		tables = append(tables, tb)
	}
	flat := Merge(tables)
	tree := MergePairwise(tables)
	if flat.Table.Len() != tree.Table.Len() {
		t.Fatalf("flat %d entries vs tree %d", flat.Table.Len(), tree.Table.Len())
	}
	// Both must map every rank's old terminal to a terminal holding
	// the same signature bytes.
	for r, tb := range tables {
		for old := int32(0); old < int32(tb.Len()); old++ {
			sigFlat := flat.Table.Sig(flat.Relabels[r][old])
			sigTree := tree.Table.Sig(tree.Relabels[r][old])
			if !bytes.Equal(sigFlat, sigTree) {
				t.Fatalf("rank %d term %d: signature mismatch between merge strategies", r, old)
			}
			if !bytes.Equal(sigFlat, tb.Sig(old)) {
				t.Fatalf("rank %d term %d: merged signature differs from original", r, old)
			}
		}
	}
	if flat.Table.Calls() != tree.Table.Calls() {
		t.Fatal("call counts diverge between merge strategies")
	}
}

// TestMergePairwiseWorkersIdentical pins the determinism argument the
// parallel finalize rests on: the pairwise tree's shape is a pure
// function of the rank count, so any worker count yields the same
// global table (bytes) and the same relabel slices.
func TestMergePairwiseWorkersIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33, 64} {
		tables := mkTables(n)
		want := MergePairwiseN(tables, 1)
		for _, workers := range []int{2, 3, 8, 0} {
			got := MergePairwiseN(tables, workers)
			if !bytes.Equal(got.Table.SerializeExact(), want.Table.SerializeExact()) {
				t.Fatalf("n=%d workers=%d: merged table differs from sequential", n, workers)
			}
			for r := 0; r < n; r++ {
				if len(got.Relabels[r]) != len(want.Relabels[r]) {
					t.Fatalf("n=%d workers=%d rank %d: relabel length differs", n, workers, r)
				}
				for old, nw := range want.Relabels[r] {
					if got.Relabels[r][old] != nw {
						t.Fatalf("n=%d workers=%d rank %d: relabel[%d]=%d, want %d",
							n, workers, r, old, got.Relabels[r][old], nw)
					}
				}
			}
		}
	}
}

// TestMergePairwiseLeavesInputsIntact guards the in-place absorb
// optimization: input (leaf) tables are the caller's — snapshots that
// may be finalized again — and must survive the merge unchanged.
func TestMergePairwiseLeavesInputsIntact(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		tables := mkTables(n)
		before := make([][]byte, n)
		for i, tb := range tables {
			before[i] = tb.SerializeExact()
		}
		MergePairwiseN(tables, 4)
		for i, tb := range tables {
			if !bytes.Equal(tb.SerializeExact(), before[i]) {
				t.Fatalf("n=%d: input table %d mutated by merge", n, i)
			}
		}
	}
}

// TestAddHitPathAllocFree pins the tracing fast path at zero
// allocations once a signature is in the table (the map probe uses a
// compiler-elided string conversion).
func TestAddHitPathAllocFree(t *testing.T) {
	tb := New()
	sig := []byte("MPI_Send(comm=0,dest=+1,tag=42)")
	tb.Add(sig, 10)
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Add(sig, 7)
	})
	if allocs != 0 {
		t.Fatalf("CST hit path allocates %.1f times per call, want 0", allocs)
	}
}

// TestGrowKeepsTheTable: a grown table keeps its entries and their
// terminals, absorbs as the ungrown one does, and absorbs the entries
// it made room for without allocating.
func TestGrowKeepsTheTable(t *testing.T) {
	build := func() *Table {
		tb := New()
		for i := 0; i < 10; i++ {
			tb.Add([]byte(fmt.Sprintf("sig%d", i%7)), int64(i))
		}
		return tb
	}
	src := New()
	for i := 0; i < 64; i++ {
		src.Add([]byte(fmt.Sprintf("sig%d", i)), 3)
	}
	plain, grown := build(), build()
	grown.Grow(src.Len())
	grown.Grow(0)
	if !bytes.Equal(plain.Serialize(), grown.Serialize()) {
		t.Fatal("Grow changed the table")
	}
	var want, got []int32
	allocs := testing.AllocsPerRun(1, func() {
		g := build()
		g.Grow(src.Len())
		got, _ = g.Absorb(src) // the relabel is Absorb's one allocation
	})
	want, _ = plain.Absorb(src)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("relabel %v, ungrown %v", got, want)
	}
	base := testing.AllocsPerRun(1, func() { build().Grow(src.Len()) })
	if allocs-base > 1 {
		t.Fatalf("absorbing into a grown table allocated %.0f times beyond the relabel", allocs-base-1)
	}
}

func TestSerializeRoundtrip(t *testing.T) {
	tb := New()
	tb.Add([]byte("alpha"), 5)
	tb.Add([]byte{0, 1, 2, 255}, 7)
	tb.Add([]byte(""), 9)
	data := tb.Serialize()
	got, err := Deserialize(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tb.Len() || got.Calls() != tb.Calls() {
		t.Fatal("shape mismatch after roundtrip")
	}
	for i := int32(0); i < int32(tb.Len()); i++ {
		if !bytes.Equal(got.Sig(i), tb.Sig(i)) {
			t.Fatalf("entry %d differs", i)
		}
		if got.AvgDuration(i) != tb.AvgDuration(i) {
			t.Fatalf("entry %d duration differs", i)
		}
	}
}

func TestDeserializeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{5},              // promises 5 entries, has none
		{1, 10, 1, 2, 3}, // truncated signature
	}
	for i, data := range cases {
		if _, err := Deserialize(data); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Trailing bytes.
	tb := New()
	tb.Add([]byte("x"), 1)
	if _, err := Deserialize(append(tb.Serialize(), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestQuickMergePreservesSignatures(t *testing.T) {
	f := func(raw [][]byte) bool {
		if len(raw) == 0 {
			return true
		}
		var tables []*Table
		for _, chunk := range raw {
			tb := New()
			for _, b := range chunk {
				tb.Add([]byte{b % 8}, 1)
			}
			tables = append(tables, tb)
		}
		m := Merge(tables)
		for r, tb := range tables {
			if len(m.Relabels[r]) != tb.Len() {
				return false
			}
			for old := int32(0); old < int32(tb.Len()); old++ {
				nw := m.Relabels[r][old]
				if !bytes.Equal(m.Table.Sig(nw), tb.Sig(old)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTermsSortedStable(t *testing.T) {
	tb := New()
	tb.Add([]byte("zz"), 1)
	tb.Add([]byte("aa"), 1)
	tb.Add([]byte("mm"), 1)
	sorted := tb.TermsSorted()
	if string(tb.Sig(sorted[0])) != "aa" || string(tb.Sig(sorted[2])) != "zz" {
		t.Fatalf("sorted order wrong: %v", sorted)
	}
}
