package cst

import (
	"bytes"
	"math/rand"
	"testing"
)

// mkTables builds n rank tables with a shared core plus per-rank
// entries, the shape the inter-process merge sees in practice.
func mkTables(n int) []*Table {
	rng := rand.New(rand.NewSource(int64(n)))
	tables := make([]*Table, n)
	for r := range tables {
		t := New()
		for i := 0; i < 10; i++ {
			t.Add([]byte{byte(i)}, int64(rng.Intn(1000)))
		}
		for i := 0; i < rng.Intn(6); i++ {
			t.Add([]byte{0xF0, byte(r), byte(i)}, int64(rng.Intn(1000)))
		}
		// Repeat hits so counts and duration sums accumulate.
		for i := 0; i < 10; i += 2 {
			t.Add([]byte{byte(i)}, int64(rng.Intn(1000)))
		}
		tables[r] = t
	}
	return tables
}

// TestIncrementalMatchesPairwise feeds ranks in random arrival orders
// and checks the result is identical — table bytes and relabel maps —
// to MergePairwise in rank order. This is the property the collector's
// byte-equivalence guarantee rests on.
func TestIncrementalMatchesPairwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 17} {
		tables := mkTables(n)
		want := MergePairwise(tables)
		for trial := 0; trial < 4; trial++ {
			order := rand.New(rand.NewSource(int64(n*100 + trial))).Perm(n)
			inc := NewIncremental(n)
			for _, r := range order {
				if err := inc.Add(r, tables[r]); err != nil {
					t.Fatalf("n=%d add rank %d: %v", n, r, err)
				}
			}
			checkMerged(t, n, inc.Result(), want)
		}
	}
}

// checkMerged fails unless got matches want exactly: same table bytes,
// same relabel maps. This is the byte-equivalence property every
// alternative feed order must preserve.
func checkMerged(t *testing.T, n int, got, want Merged) {
	t.Helper()
	if !bytes.Equal(got.Table.SerializeExact(), want.Table.SerializeExact()) {
		t.Fatalf("n=%d: merged table differs from MergePairwise", n)
	}
	for r := 0; r < n; r++ {
		if len(got.Relabels[r]) != len(want.Relabels[r]) {
			t.Fatalf("n=%d rank %d: relabel size %d != %d", n, r, len(got.Relabels[r]), len(want.Relabels[r]))
		}
		for old, nw := range want.Relabels[r] {
			if got.Relabels[r][old] != nw {
				t.Fatalf("n=%d rank %d: relabel[%d]=%d, want %d", n, r, old, got.Relabels[r][old], nw)
			}
		}
	}
}

func TestIncrementalRejectsBadAdds(t *testing.T) {
	inc := NewIncremental(2)
	tb := New()
	tb.Add([]byte("x"), 1)
	if err := inc.Add(2, tb); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := inc.Add(-1, tb); err == nil {
		t.Fatal("negative rank accepted")
	}
	if err := inc.Add(0, tb); err != nil {
		t.Fatal(err)
	}
	if err := inc.Add(0, tb); err == nil {
		t.Fatal("duplicate rank accepted")
	}
}

// TestSerializeExactRoundTrip checks the exact form preserves duration
// sums that the on-disk (average-storing) form would round away.
func TestSerializeExactRoundTrip(t *testing.T) {
	tb := New()
	tb.Add([]byte("a"), 3)
	tb.Add([]byte("a"), 4) // sum 7 over 2 calls: avg form would store 3
	tb.Add([]byte("b"), 5)
	got, err := DeserializeExact(tb.SerializeExact())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.SerializeExact(), tb.SerializeExact()) {
		t.Fatal("exact round trip not identical")
	}
	if got.durSum[0] != 7 {
		t.Fatalf("durSum = %d, want 7", got.durSum[0])
	}
	// The lossy path really is lossy here — guard that the exact path
	// is needed at all.
	lossy, err := Deserialize(tb.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if lossy.durSum[0] == 7 {
		t.Fatal("avg round trip unexpectedly exact; exact form redundant?")
	}
}

func TestDeserializeExactTruncated(t *testing.T) {
	tb := New()
	tb.Add([]byte("sig"), 123)
	full := tb.SerializeExact()
	for cut := 0; cut < len(full); cut++ {
		if _, err := DeserializeExact(full[:cut]); err == nil && cut < len(full) {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DeserializeExact(append(full, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestExactSizeMatchesSerializeExact: ExactSize predicts the encoded
// length for every varint width, negative sums included.
func TestExactSizeMatchesSerializeExact(t *testing.T) {
	tb := New()
	for i, d := range []int64{0, 1, -1, 63, 64, -65, 1 << 20, -(1 << 40), 1<<63 - 1, -1 << 63} {
		tb.Add(bytes.Repeat([]byte{'k'}, 1+i*37), d)
	}
	b := tb.SerializeExact()
	if tb.ExactSize() != len(b) || cap(b) != len(b) {
		t.Fatalf("ExactSize %d, encoded %d bytes in a buffer of %d", tb.ExactSize(), len(b), cap(b))
	}
	if !bytes.Equal(tb.AppendExact([]byte("xy"))[2:], b) {
		t.Fatal("AppendExact after a prefix differs from SerializeExact")
	}
}
