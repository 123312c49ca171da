package experiments

import (
	"bytes"
	"os"
	"runtime/debug"
	"strconv"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/spill"
)

// TestFinalizeMemBounded is the memory-bounded finalize gate: it
// measures the in-memory finalize's peak heap at a rank count, then
// sets a Go memory limit (GOMEMLIMIT's runtime form) to half that
// peak — a budget the in-memory path provably exceeded — and runs the
// streamed finalize under it, asserting success, byte identity, and a
// peak under the limit. CI scales the rank count up with
// PILGRIM_MEMBOUND_RANKS=4096; the default keeps the tier-1 run fast.
func TestFinalizeMemBounded(t *testing.T) {
	procs := 512
	if v := os.Getenv("PILGRIM_MEMBOUND_RANKS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			t.Fatalf("PILGRIM_MEMBOUND_RANKS=%q", v)
		}
		procs = n
	}

	var want []byte
	inmemPeak, _, err := measurePeak(func() error {
		snaps := SyntheticSnapshots(procs)
		f, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
		var b bytes.Buffer
		if _, err := f.WriteTo(&b); err != nil {
			return err
		}
		want = b.Bytes()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The budget the in-memory path exceeded. Guard against tiny rank
	// counts where runtime overhead (stacks, metadata) would dominate a
	// half-peak budget and make the limit meaningless.
	limit := int64(inmemPeak) / 2
	limited := limit > 16<<20
	if limited {
		prev := debug.SetMemoryLimit(limit)
		defer debug.SetMemoryLimit(prev)
	} else {
		t.Logf("in-memory peak %d B too small for a meaningful limit; checking identity only", inmemPeak)
	}

	var streamed []byte
	streamedPeak, _, err := measurePeak(func() error {
		f, _, err := spill.FinalizeRanks(procs, SyntheticSnapshot, nil,
			core.Options{SpillDir: t.TempDir(), CollectorRunID: "bounded", MaxResidentSnapshots: memBatch})
		if err != nil {
			return err
		}
		var b bytes.Buffer
		if _, err := f.WriteTo(&b); err != nil {
			return err
		}
		streamed = b.Bytes()
		return nil
	})
	if err != nil {
		t.Fatalf("streamed finalize under memory limit: %v", err)
	}
	if !bytes.Equal(streamed, want) {
		t.Fatalf("streamed trace differs from in-memory (%d vs %d bytes)", len(streamed), len(want))
	}
	if limited {
		if int64(streamedPeak) >= limit {
			t.Fatalf("streamed peak heap %d B exceeded the %d B limit (in-memory peaked at %d B)",
				streamedPeak, limit, inmemPeak)
		}
		t.Logf("%d ranks: in-memory peak %d B > limit %d B > streamed peak %d B (%.2fx)",
			procs, inmemPeak, limit, streamedPeak, float64(streamedPeak)/float64(inmemPeak))
	}
}
