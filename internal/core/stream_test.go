package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/leaktest"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// streamSnapshots builds n single-signature ranks with pairwise
// distinct grammars (rank r repeats its call r+1 times), so every
// batch flushes first-seen grammars to the Packers, and merges their
// tables.
func streamSnapshots(n int, lossy bool) ([]*Snapshot, cst.Merged) {
	snaps := make([]*Snapshot, n)
	tables := make([]*cst.Table, n)
	for r := range snaps {
		tb := cst.New()
		g := sequitur.New()
		g.AppendRun(tb.Add([]byte("sig"), 1), int64(r+1))
		snaps[r] = &Snapshot{Rank: r, Calls: int64(r + 1), Table: tb, Grammar: g.Serialize()}
		if lossy {
			snaps[r].DurGrammar, snaps[r].IntGrammar = g.Serialize(), g.Serialize()
		}
		tables[r] = tb.Clone()
	}
	return snaps, cst.MergePairwiseN(tables, 1)
}

// TestFinalizeStreamedErrorJoinsPackers: the Packers run on their own
// goroutines while the walk fetches, so every error return has to stop
// them. A fetch that fails on the second batch, and a grammar naming a
// terminal its table never held (a panic before it was an error),
// each come back as that error with the goroutine count at its
// baseline, in both timing modes and with the Packers inline or not.
func TestFinalizeStreamedErrorJoinsPackers(t *testing.T) {
	const n = 12
	errFetch := errors.New("spill: batch 2 unreadable")
	for _, lossy := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			snaps, merged := streamSnapshots(n, lossy)
			opts := Options{MaxResidentSnapshots: 4, FinalizeWorkers: workers}
			if lossy {
				opts.TimingMode = trace.TimingLossy
			}
			fetches := 0
			failing := func(start, k int) ([]*Snapshot, error) {
				if fetches++; fetches == 2 {
					return nil, errFetch
				}
				return snaps[start : start+k], nil
			}
			check := leaktest.Baseline(t)
			if _, _, err := FinalizePremergedStreamed(n, failing, merged, 0, opts, nil); !errors.Is(err, errFetch) {
				t.Fatalf("lossy=%v workers=%d: fetch failure came back as %v", lossy, workers, err)
			}
			check()
			if fetches != 2 {
				t.Fatalf("lossy=%v workers=%d: fetch called %d times, want 2 (none after the failure)", lossy, workers, fetches)
			}

			bad := *snaps[9]
			g := sequitur.New()
			g.Append(0)
			g.Append(7)
			bad.Grammar = g.Serialize()
			hostile := func(start, k int) ([]*Snapshot, error) {
				out := append([]*Snapshot(nil), snaps[start:start+k]...)
				if start <= 9 && 9 < start+k {
					out[9-start] = &bad
				}
				return out, nil
			}
			check = leaktest.Baseline(t)
			_, _, err := FinalizePremergedStreamed(n, hostile, merged, 0, opts, nil)
			if err == nil || !strings.Contains(err.Error(), "relabel rank 9") {
				t.Fatalf("lossy=%v workers=%d: unmapped terminal came back as %v", lossy, workers, err)
			}
			check()
		}
	}
}
