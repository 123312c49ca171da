package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/experiments"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// skeletonSnapshots traces one internal/workloads skeleton on 8 ranks
// (9 where it needs a square, 16 for MILC's 4-D lattice) and snapshots
// every tracer.
func skeletonSnapshots(t *testing.T, name string, opts core.Options) []*core.Snapshot {
	t.Helper()
	n, iters := 8, 3
	switch name {
	case "bt", "sp":
		n = 9
	case "milc":
		n, iters = 16, 1
	}
	return core.Snapshots(traceSkeleton(t, name, n, iters, opts))
}

// traceSkeleton traces one internal/workloads skeleton on n ranks for
// iters iterations and returns its tracers.
func traceSkeleton(t *testing.T, name string, n, iters int, opts core.Options) []*core.Tracer {
	t.Helper()
	body, err := workloads.Get(name, iters, n)
	if err != nil {
		t.Fatal(err)
	}
	tracers := make([]*core.Tracer, n)
	ics := make([]mpi.Interceptor, n)
	for i := range tracers {
		tracers[i] = core.NewTracer(i, nil, opts)
		ics[i] = tracers[i]
	}
	err = mpi.RunOpt(n, mpi.Options{Interceptors: ics, Timeout: 60 * time.Second}, func(p *mpi.Proc) {
		core.BindOOB(tracers[p.Rank()], p)
		body(p)
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tracers
}

// premergedOracle is the finalize handed a premerged CST: every table
// merged first by cst.Incremental, fed in reverse rank order so each
// table waits for every lower rank, then the walk handed that table. cst's tests hold Incremental to the paper's
// log₂P pairwise tree.
func premergedOracle(t *testing.T, snaps []*core.Snapshot, opts core.Options, info *trace.SalvageInfo) ([]byte, core.FinalizeStats) {
	t.Helper()
	inc := cst.NewIncremental(len(snaps))
	for r := len(snaps) - 1; r >= 0; r-- {
		if err := inc.Add(r, snaps[r].Table); err != nil {
			t.Fatal(err)
		}
	}
	f, st := core.FinalizePremerged(snaps, inc.Result(), 0, opts, info)
	return fileBytes(t, f), st
}

func fileBytes(t *testing.T, f *trace.File) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// salvageInfo tags a salvage of snaps with two failed ranks; the walk
// fills in the calls.
func salvageInfo(snaps []*core.Snapshot) *trace.SalvageInfo {
	return &trace.SalvageInfo{Reason: "fold identity", FailedRanks: []int32{1, int32(len(snaps) - 1)}}
}

// foldSweep finalizes snaps through the walk's rank-order fold at batch
// caps K ∈ {1, 3, 64, world} and GOMAXPROCS 1, 2, 3 and 8, failing
// unless every trace is byte-identical to the premerged oracle's and
// reports the same global CST.
func foldSweep(t *testing.T, snaps []*core.Snapshot, opts core.Options, info *trace.SalvageInfo) {
	t.Helper()
	want, wantSt := premergedOracle(t, snaps, opts, info)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, k := range []int{1, 3, 64, len(snaps)} {
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			opts.MaxResidentSnapshots = k
			f, st := core.FinalizeSnapshots(snaps, opts, info)
			if got := fileBytes(t, f); !bytes.Equal(got, want) {
				t.Fatalf("K=%d procs=%d: folded trace differs from the premerged oracle (%d vs %d bytes)", k, procs, len(got), len(want))
			}
			if st.GlobalCST != wantSt.GlobalCST || st.UniqueCFGs != wantSt.UniqueCFGs {
				t.Fatalf("K=%d procs=%d: stats %+v, oracle %+v", k, procs, st, wantSt)
			}
		}
	}
}

// TestFinalizeStreamedFoldByteIdentical: the walk's rank-order CST fold,
// relabelling batch by batch, writes the same trace bytes as merging
// every table through cst.Incremental first, on every skeleton and on
// 1024 synthetic ranks, in aggregated and lossy timing and as a
// salvage, for every batch cap and GOMAXPROCS.
func TestFinalizeStreamedFoldByteIdentical(t *testing.T) {
	lossy := core.Options{TimingMode: trace.TimingLossy}
	for _, w := range workloads.List() {
		t.Run(w.Name, func(t *testing.T) {
			snaps := skeletonSnapshots(t, w.Name, core.Options{})
			foldSweep(t, snaps, core.Options{}, nil)
			foldSweep(t, snaps, core.Options{}, salvageInfo(snaps))
			foldSweep(t, skeletonSnapshots(t, w.Name, lossy), lossy, nil)
		})
	}
	t.Run("synthetic1024", func(t *testing.T) {
		snaps := experiments.SyntheticSnapshots(1024)
		foldSweep(t, snaps, core.Options{}, nil)
		foldSweep(t, snaps, core.Options{}, salvageInfo(snaps))
		// Synthetic ranks have no timing streams; their call grammar
		// stands in for both.
		for _, s := range snaps {
			s.DurGrammar, s.IntGrammar = s.Grammar, s.Grammar
		}
		foldSweep(t, snaps, lossy, nil)
	})
}

// TestWalkShapeColumn: the walk's Shape column is the first-seen dedup
// of the unique grammars by sequitur.Serialized.Shape, in rank order,
// and the call section's pack covers exactly the representatives, on
// every skeleton.
func TestWalkShapeColumn(t *testing.T) {
	for _, w := range workloads.List() {
		snaps := skeletonSnapshots(t, w.Name, core.Options{})
		f, st := core.FinalizeSnapshots(snaps, core.Options{MaxResidentSnapshots: 3}, nil)
		first := map[string]int32{}
		for j, g := range f.Grammars {
			shape, _ := g.Shape()
			key := fmt.Sprint(shape)
			want, seen := first[key]
			if !seen {
				first[key], want = int32(j), -1
			}
			if f.Shape[j] != want {
				t.Fatalf("%s: grammar %d has Shape %d, want %d", w.Name, j, f.Shape[j], want)
			}
		}
		if len(f.Shape) != len(f.Grammars) || st.UniqueShapes != len(first) {
			t.Fatalf("%s: %d shape entries for %d grammars, %d unique shapes reported, %d found",
				w.Name, len(f.Shape), len(f.Grammars), st.UniqueShapes, len(first))
		}
		if !slices.Equal(f.Packed, packAll(f.Representatives())) {
			t.Fatalf("%s: the pack is not the representatives'", w.Name)
		}
	}
}

// packAll is the final Sequitur pass over gs: a Packer fed them in order.
func packAll(gs []sequitur.Serialized) sequitur.Serialized {
	p := sequitur.NewPacker()
	for _, g := range gs {
		p.Add(g)
	}
	return p.Finish()
}
