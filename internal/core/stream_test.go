package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/leaktest"
	"github.com/hpcrepro/pilgrim/internal/metrics"
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
		merged.Relabels[r], _ = merged.Table.Absorb(tb) // one call per rank cannot overflow
	}
	return snaps, merged
}

// streamedWith is FinalizeStreamed, handed the tables premerged when
// merged is non-nil.
func streamedWith(n int, fetch SnapshotFetch, merged *cst.Merged, opts Options) (*trace.File, FinalizeStats, error) {
	if merged == nil {
		return FinalizeStreamed(n, fetch, opts, nil)
	}
	return newWalk(n, merged, 0, opts).streamed(fetch, nil)
}

// TestFinalizeStreamedErrorJoinsPackers: the Packers run on their own
// goroutines, and each fetch on one of its own while the walk takes in
// the batch before, so every return has to join them. A fetch that
// fails on the second batch, an Add that fails on the second batch
// while the third is being fetched, a grammar naming a terminal its
// table never held (a panic before it was an error), and, when the
// walk folds the tables itself, a snapshot fetched without its table,
// and a table whose call count would take the merged entry past an
// int64, each come back as that error with the goroutine count at its
// baseline, as do a finished walk and one stopped halfway: in both
// timing modes, at GOMAXPROCS 1, 2, 3 and 8, folding or handed the
// tables premerged.
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
				if _, _, err := streamedWith(n, failing, merged, opts); !errors.Is(err, errFetch) {
					t.Fatalf("%s: fetch failure came back as %v", name, err)
				}
				check()
				if fetches != 2 {
					t.Fatalf("%s: fetch called %d times, want 2 (none after the failure)", name, fetches)
				}

				// Under a cap of 2 the batches are of one rank: rank 1, the
				// second batch, names a terminal its table never held, and
				// the third batch's fetch, started beside that Add, is still
				// running when it fails (a sleep keeps it so; no check
				// depends on how long). The finalize returns only once that
				// fetch has, and fetches nothing after it.
				capped := opts
				capped.MaxResidentSnapshots = 2
				if b, limit := capped.fetchGrain(n); b != 1 || limit != 2 {
					t.Fatalf("%s: batches of %d under a limit of %d", name, b, limit)
				}
				var third atomic.Bool
				fetches = 0
				slow := func(start, k int) ([]*Snapshot, error) {
					fetches++
					out := append([]*Snapshot(nil), snaps[start:start+k]...)
					switch start {
					case 1:
						bad := *out[0]
						g := sequitur.New()
						g.Append(7)
						bad.Grammar = g.Serialize()
						out[0] = &bad
					case 2:
						time.Sleep(20 * time.Millisecond)
						third.Store(true)
					}
					return out, nil
				}
				check = leaktest.Baseline(t)
				_, _, err := streamedWith(n, slow, merged, capped)
				if err == nil || !strings.Contains(err.Error(), "relabel rank 1") {
					t.Fatalf("%s: a failing Add came back as %v", name, err)
				}
				if !third.Load() || fetches != 3 {
					t.Fatalf("%s: returned with the third fetch done %v, after %d fetches, want it done and 3", name, third.Load(), fetches)
				}
				check()

				check = leaktest.Baseline(t)
				if _, _, err := streamedWith(n, func(start, k int) ([]*Snapshot, error) {
					return snaps[start : start+k], nil
				}, merged, capped); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check()
				check = leaktest.Baseline(t)
				w := newWalk(n, merged, 0, opts)
				if err := w.Add(snaps[:n/2]); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				w.Stop()
				check()

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
				_, _, err = streamedWith(n, hostile, merged, opts)
				if err == nil || !strings.Contains(err.Error(), "relabel rank 9") {
					t.Fatalf("%s: unmapped terminal came back as %v", name, err)
				}
				check()

				tableless := swap9(func(s *Snapshot) { s.Table = nil })
				check = leaktest.Baseline(t)
				_, _, err = streamedWith(n, tableless, merged, opts)
				if fold && (err == nil || !strings.Contains(err.Error(), "rank 9 without its table")) {
					t.Fatalf("%s: a missing table came back as %v", name, err)
				}
				if !fold && err != nil {
					t.Fatalf("%s: premerged walk needed a table: %v", name, err)
				}
				check()

				overflowing := swap9(func(s *Snapshot) {
					b := binary.AppendUvarint(nil, 1) // one entry: "sig", called math.MaxInt64 times
					b = append(binary.AppendUvarint(b, 3), "sig"...)
					b = binary.AppendVarint(binary.AppendVarint(b, math.MaxInt64), 1)
					var err error
					if s.Table, err = cst.DeserializeExact(b); err != nil {
						t.Fatal(err)
					}
				})
				check = leaktest.Baseline(t)
				_, _, err = streamedWith(n, overflowing, merged, opts)
				if fold && (err == nil || !strings.Contains(err.Error(), "merge rank 9")) {
					t.Fatalf("%s: an overflowing count came back as %v", name, err)
				}
				if !fold && err != nil {
					t.Fatalf("%s: premerged walk read a table: %v", name, err)
				}
				check()
			}
		}
	}
}

// TestFinalizeStreamedResidency: a snapshot is resident from the fetch
// that returns it until the end of its Walk.Add, and under
// MaxResidentSnapshots K no more than K ever are. The fetch checks the
// bound as it starts, against the ranks walked so far. Whenever two
// batches fit under K each Add waits for the next batch's fetch to
// start, which it must (the walk fetches a batch ahead), and otherwise
// requires that it has not. The trace is the in-memory finalize's
// bytes: for K of 1, 2, 3 and 256 and no cap, in both timing modes,
// folding or handed the tables premerged.
func TestFinalizeStreamedResidency(t *testing.T) {
	const n = 64
	for _, lossy := range []bool{false, true} {
		for _, fold := range []bool{false, true} {
			snaps, merged := streamSnapshots(n, lossy)
			if fold {
				merged = nil
			}
			var opts Options
			if lossy {
				opts.TimingMode = trace.TimingLossy
			}
			ref, _ := FinalizeSnapshots(snaps, opts, nil)
			want := streamBytes(t, ref)
			for _, k := range []int{1, 2, 3, 256, 0} {
				name := fmt.Sprintf("lossy=%v fold=%v K=%d", lossy, fold, k)
				opts.MaxResidentSnapshots = k
				batch, limit := opts.fetchGrain(n)
				if k > 0 && limit != k {
					t.Fatalf("%s: limit %d", name, limit)
				}
				ahead := 2*batch <= limit
				var fetched, walked, peak, calls atomic.Int64
				started := make(chan struct{}, n) // one send per fetch
				fetch := func(start, m int) ([]*Snapshot, error) {
					calls.Add(1)
					started <- struct{}{}
					resident := fetched.Add(int64(m)) - walked.Load()
					if resident > int64(limit) {
						t.Errorf("%s: fetch [%d,%d) makes %d snapshots resident", name, start, start+m, resident)
					}
					if resident > peak.Load() {
						peak.Store(resident)
					}
					return snaps[start : start+m], nil
				}
				w := newWalk(n, merged, 0, opts)
				adds, seen := int64(0), int64(0)
				err := pipeline(n, batch, limit, fetch, func(b []*Snapshot) error {
					adds++
					for ; ahead && b[len(b)-1].Rank+1 < n && seen <= adds; seen++ {
						select {
						case <-started:
						case <-time.After(5 * time.Second):
							return fmt.Errorf("batch %d walked with no fetch ahead of it", adds)
						}
					}
					if !ahead && calls.Load() > adds {
						return fmt.Errorf("batch %d walked beside the next fetch", adds)
					}
					err := w.Add(b)
					walked.Add(int64(len(b)))
					return err
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				f, _, err := w.Finish(nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := streamBytes(t, f); !bytes.Equal(got, want) {
					t.Fatalf("%s: %d bytes, in memory %d", name, len(got), len(want))
				}
				if want := int64(min(limit, 2*batch)); peak.Load() != want {
					t.Errorf("%s: at most %d snapshots resident, want %d (batches of %d)", name, peak.Load(), want, batch)
				}
				f, _, err = streamedWith(n, func(start, m int) ([]*Snapshot, error) {
					return snaps[start : start+m], nil
				}, merged, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := streamBytes(t, f); !bytes.Equal(got, want) {
					t.Fatalf("%s: FinalizeStreamed wrote %d bytes, in memory %d", name, len(got), len(want))
				}
			}
		}
	}
}

func streamBytes(t *testing.T, f *trace.File) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWalkFinishFillsSalvageCalls: a tag handed to Finish with only its
// reason and failed ranks comes back on the File with every rank's
// snapshot calls, and the salvage is counted once on the collector; an
// untagged walk counts none.
func TestWalkFinishFillsSalvageCalls(t *testing.T) {
	const n = 5
	snaps, _ := streamSnapshots(n, false)
	col := metrics.NewCollector()
	for _, info := range []*trace.SalvageInfo{nil, {Reason: "test", FailedRanks: []int32{3}}} {
		w := NewWalk(n, Options{Collector: col})
		for r := 0; r < n; r += 2 {
			if err := w.Add(snaps[r:min(r+2, n)]); err != nil {
				t.Fatal(err)
			}
		}
		f, _, err := w.Finish(info)
		if err != nil {
			t.Fatal(err)
		}
		if f.Salvage != info {
			t.Fatalf("the File carries tag %+v, not the one handed to Finish", f.Salvage)
		}
		if info != nil && !slices.Equal(info.Calls, []int64{1, 2, 3, 4, 5}) {
			t.Fatalf("the tag holds calls %v, want each snapshot's [1 2 3 4 5]", info.Calls)
		}
	}
	if got := col.Report().Counters["pilgrim_trace_salvages_total"]; got != 1 {
		t.Fatalf("salvages = %d, want 1", got)
	}
}
