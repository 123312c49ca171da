package cst

import (
	"bytes"
	"encoding/binary"
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

// encodeTables lays tables out as FuzzIncrementalArrivalOrder's input:
// a rank count byte, then per entry (rank, signature length, signature,
// uvarint duration) records that rebuild each table's entries in
// order, with their counts and duration sums.
func encodeTables(tables []*Table) []byte {
	b := []byte{byte(len(tables) - 1)}
	for r, t := range tables {
		for term, key := range t.sigs {
			for c := int64(0); c < t.acc[term].count; c++ {
				var dur int64
				if c == 0 {
					dur = t.acc[term].durSum
				}
				b = append(b, byte(r), byte(len(key)))
				b = append(b, key...)
				b = binary.AppendUvarint(b, uint64(dur))
			}
		}
	}
	return b
}

// decodeTables is encodeTables's inverse over any input: 1 to 64 ranks,
// signatures of up to 7 bytes, a truncated record ignored.
func decodeTables(b []byte) []*Table {
	if len(b) == 0 {
		return nil
	}
	tables := make([]*Table, 1+int(b[0])%64)
	for r := range tables {
		tables[r] = New()
	}
	for b = b[1:]; len(b) >= 2; {
		r, l := int(b[0])%len(tables), int(b[1])%8
		if len(b) < 2+l {
			break
		}
		sig := b[2 : 2+l]
		dur, k := binary.Uvarint(b[2+l:])
		if k <= 0 {
			break
		}
		tables[r].Add(sig, int64(dur%1e9))
		b = b[2+l+k:]
	}
	return tables
}

// FuzzIncrementalArrivalOrder feeds any table set to Incremental in any
// arrival order (order's bytes swap ranks of the identity permutation)
// and requires the result, table bytes and relabels alike, to equal
// both the pairwise tree and the rank-order Absorb fold. A rank added
// twice, or out of range, must fail at any point of the feed.
func FuzzIncrementalArrivalOrder(f *testing.F) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 16, 17} {
		tables := mkTables(n)
		data := encodeTables(tables)
		for r, tb := range decodeTables(data) {
			if !bytes.Equal(tb.SerializeExact(), tables[r].SerializeExact()) {
				f.Fatalf("n=%d rank %d: the seed does not decode to its table", n, r)
			}
		}
		f.Add(data, []byte{})
		f.Add(data, []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5})
	}
	f.Fuzz(func(t *testing.T, data, order []byte) {
		tables := decodeTables(data)
		n := len(tables)
		if n == 0 {
			return
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i, b := range order {
			j, k := i%n, int(b)%n
			perm[j], perm[k] = perm[k], perm[j]
		}
		fold := New()
		relabels := make([][]int32, n)
		for r, tb := range tables {
			var err error
			if relabels[r], err = fold.Absorb(tb); err != nil {
				t.Fatal(err)
			}
		}
		inc := NewIncremental(n)
		for _, r := range perm {
			if err := inc.Add(r, tables[r]); err != nil {
				t.Fatalf("add rank %d: %v", r, err)
			}
			if inc.Add(r, tables[r]) == nil || inc.Add(n, tables[r]) == nil || inc.Add(-1, tables[r]) == nil {
				t.Fatalf("a duplicate or out-of-range add of rank %d accepted", r)
			}
		}
		got := inc.Result()
		checkMerged(t, n, got, MergePairwise(tables))
		checkMerged(t, n, got, Merged{Table: fold, Relabels: relabels})
	})
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
	if got.acc[0].durSum != 7 {
		t.Fatalf("durSum = %d, want 7", got.acc[0].durSum)
	}
	// The lossy path really is lossy here — guard that the exact path
	// is needed at all.
	lossy, err := Deserialize(tb.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if lossy.acc[0].durSum == 7 {
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
