package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/leaktest"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// streamSnapshots builds n single-signature ranks with pairwise
// distinct grammars (rank r repeats its call r+1 times), so every
// batch flushes first-seen grammars to the Packers, and folds their
// tables into a premerged CST.
func streamSnapshots(n int, lossy bool) ([]*Snapshot, *cst.Merged) {
	snaps := make([]*Snapshot, n)
	merged := &cst.Merged{Table: cst.New(), Relabels: make([][]int32, n)}
	for r := range snaps {
		tb := cst.New()
		g := sequitur.New()
		g.AppendRun(tb.Add([]byte("sig"), 1), int64(r+1))
		snaps[r] = &Snapshot{Rank: r, Calls: int64(r + 1), Table: tb, Grammar: g.Serialize()}
		if lossy {
			snaps[r].DurGrammar, snaps[r].IntGrammar = g.Serialize(), g.Serialize()
		}
		merged.Relabels[r] = merged.Table.Absorb(tb)
	}
	return snaps, merged
}

// TestFinalizeStreamedErrorJoinsPackers: the Packers run on their own
// goroutines while the walk fetches, so every error return has to stop
// them. A fetch that fails on the second batch, a grammar naming a
// terminal its table never held (a panic before it was an error), and,
// when the walk folds the tables itself, a snapshot fetched without
// its table each come back as that error with the goroutine count at
// its baseline: in both timing modes, at GOMAXPROCS 1, 2, 3 and 8,
// folding or handed the tables premerged.
func TestFinalizeStreamedErrorJoinsPackers(t *testing.T) {
	const n = 12
	errFetch := errors.New("spill: batch 2 unreadable")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, lossy := range []bool{false, true} {
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			for _, fold := range []bool{false, true} {
				name := fmt.Sprintf("lossy=%v procs=%d fold=%v", lossy, procs, fold)
				snaps, merged := streamSnapshots(n, lossy)
				if fold {
					merged = nil
				}
				var opts Options
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
				if _, _, err := FinalizeStreamed(n, failing, merged, 0, opts, nil); !errors.Is(err, errFetch) {
					t.Fatalf("%s: fetch failure came back as %v", name, err)
				}
				check()
				if fetches != 2 {
					t.Fatalf("%s: fetch called %d times, want 2 (none after the failure)", name, fetches)
				}

				// Rank 9 swapped for a copy: the grammar naming terminal 7
				// of a one-entry table, or the table left out.
				swap9 := func(edit func(s *Snapshot)) SnapshotFetch {
					bad := *snaps[9]
					edit(&bad)
					return func(start, k int) ([]*Snapshot, error) {
						out := append([]*Snapshot(nil), snaps[start:start+k]...)
						if start <= 9 && 9 < start+k {
							out[9-start] = &bad
						}
						return out, nil
					}
				}
				hostile := swap9(func(s *Snapshot) {
					g := sequitur.New()
					g.Append(0)
					g.Append(7)
					s.Grammar = g.Serialize()
				})
				check = leaktest.Baseline(t)
				_, _, err := FinalizeStreamed(n, hostile, merged, 0, opts, nil)
				if err == nil || !strings.Contains(err.Error(), "relabel rank 9") {
					t.Fatalf("%s: unmapped terminal came back as %v", name, err)
				}
				check()

				tableless := swap9(func(s *Snapshot) { s.Table = nil })
				check = leaktest.Baseline(t)
				_, _, err = FinalizeStreamed(n, tableless, merged, 0, opts, nil)
				if fold && (err == nil || !strings.Contains(err.Error(), "rank 9 without its table")) {
					t.Fatalf("%s: a missing table came back as %v", name, err)
				}
				if !fold && err != nil {
					t.Fatalf("%s: premerged walk needed a table: %v", name, err)
				}
				check()
			}
		}
	}
}
