package pilgrim_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/spill"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/workloads"
)

// The streaming, bounded-memory finalize must be byte-identical to the
// in-memory finalize for every batch size and GOMAXPROCS: batching
// only changes when merge work happens, never what it computes, and
// every ordering-sensitive pass stays sequential in rank order. These
// tests pin that over the golden cases — plain, lossy timing, salvage,
// and the collector's premerged path — through the spill route's one
// driver (spill.FinalizeRanks: each batch's frames written out and the
// batch finalized from memory, nothing read back).

// streamedSweep finalizes snaps through the spill at several batch
// sizes and GOMAXPROCS settings, failing unless every trace is
// byte-identical to the in-memory finalize of the same snapshots. The
// call section's final Sequitur pass runs on its own goroutine beside
// the walk, a batch behind it, which is what -race and CI's -cpu 1,2,4
// run exercise here.
func streamedSweep(t *testing.T, snaps []*core.Snapshot, opts core.Options, info *trace.SalvageInfo) {
	t.Helper()
	n := len(snaps)
	mem, _ := core.FinalizeSnapshots(snaps, opts, info)
	want := traceBytes(t, mem)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	// The driver owns what take returns; snaps is reused across the
	// sweep, so hand out a copy.
	take := func(rank int) *core.Snapshot {
		s := *snaps[rank]
		s.Table = s.Table.Clone()
		return &s
	}
	for _, k := range []int{1, 3, n} {
		for _, p := range procsSweep {
			runtime.GOMAXPROCS(p)
			sopts := opts
			sopts.SpillDir = t.TempDir()
			sopts.MaxResidentSnapshots = k
			f, _, err := spill.FinalizeRanks(n, take, info, sopts)
			if err != nil {
				t.Fatalf("batch=%d GOMAXPROCS=%d: %v", k, p, err)
			}
			if got := traceBytes(t, f); !bytes.Equal(got, want) {
				t.Errorf("batch=%d GOMAXPROCS=%d: streamed trace differs from in-memory (%d vs %d bytes)",
					k, p, len(got), len(want))
			}
		}
	}
}

func TestFinalizeStreamedByteIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			snaps := snapshotsFor(t, n, core.Options{})
			streamedSweep(t, snaps, core.Options{}, nil)
		})
	}
}

// TestFinalizeStreamedByteIdenticalLossyTiming also sweeps a lossy
// salvage: the timing sets are deflated once per File, on every route.
func TestFinalizeStreamedByteIdenticalLossyTiming(t *testing.T) {
	opts := core.Options{TimingMode: trace.TimingLossy, TimingBase: 1.2}
	for _, n := range []int{2, 7, 16} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			snaps := snapshotsFor(t, n, opts)
			streamedSweep(t, snaps, opts, nil)
			if n == 7 {
				info := &trace.SalvageInfo{Reason: "identity test", FailedRanks: []int32{2}, Calls: make([]int64, n)}
				streamedSweep(t, snaps, opts, info)
			}
		})
	}
}

// TestFinalizeStreamedShapeByteIdentical: cg's ranks have unique
// grammars of one shape, so the trace stores them by shape, and which
// grammar represents the shape must not depend on the batch size or
// GOMAXPROCS.
func TestFinalizeStreamedShapeByteIdentical(t *testing.T) {
	for _, n := range []int{16, 33} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			body, err := workloads.Get("cg", 3, n)
			if err != nil {
				t.Fatal(err)
			}
			snaps := snapshotsOf(t, n, core.Options{}, body)
			f, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
			if len(f.Representatives()) == len(f.Grammars) {
				t.Fatalf("cg's %d grammars are of %d shapes, not stored by shape", len(f.Grammars), len(f.Representatives()))
			}
			streamedSweep(t, snaps, core.Options{}, nil)
		})
	}
}

func TestFinalizeStreamedByteIdenticalSalvage(t *testing.T) {
	const n = 7
	snaps := snapshotsFor(t, n, core.Options{})
	info := &trace.SalvageInfo{Reason: "identity test", FailedRanks: []int32{2, 5}, Calls: make([]int64, n)}
	for i, s := range snaps {
		info.Calls[i] = s.Calls
	}
	streamedSweep(t, snaps, core.Options{}, info)
}

// TestFinalizePremergedStreamedByteIdentical covers the collector's
// spilled-payload path: tables merged incrementally in an arbitrary
// arrival order, then a grammar pass streaming the snapshots back in
// bounded batches, must finalize to the same bytes as a local
// in-memory finalize.
func TestFinalizePremergedStreamedByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, 2, 7, 16, 33} {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) {
			snaps := snapshotsFor(t, n, core.Options{})
			mem, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
			want := traceBytes(t, mem)

			// Feed the incremental merge out of rank order.
			inc := cst.NewIncremental(n)
			stride := 3
			if n%stride == 0 {
				stride = 1
			}
			for i := 0; i < n; i++ {
				r := (i * stride) % n
				if err := inc.Add(r, snaps[r].Table); err != nil {
					t.Fatal(err)
				}
			}
			merged := inc.Result()
			// The premerged grammar pass never reads tables and never
			// mutates snapshots, so a fetch slicing the resident array
			// satisfies the ownership contract.
			fetch := func(start, n int) ([]*core.Snapshot, error) {
				return snaps[start : start+n], nil
			}
			for _, k := range []int{1, 3, n} {
				for _, p := range procsSweep {
					runtime.GOMAXPROCS(p)
					opts := core.Options{MaxResidentSnapshots: k}
					f, _, err := core.FinalizeStreamed(n, fetch, &merged, 0, opts, nil)
					if err != nil {
						t.Fatalf("batch=%d GOMAXPROCS=%d: %v", k, p, err)
					}
					if got := traceBytes(t, f); !bytes.Equal(got, want) {
						t.Errorf("batch=%d GOMAXPROCS=%d: premerged streamed trace differs from local finalize",
							k, p)
					}
				}
			}
		})
	}
}
