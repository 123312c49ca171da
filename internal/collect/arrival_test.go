package collect_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/leaktest"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
)

// TestArrivalOrderByteIdentical sweeps the collector's identity claim
// over schedules. The ranks arrive in order, reversed, shuffled, with
// rank 0 last, or from two senders at once; their payloads stay
// resident or spill to the journal beyond 3; and the run either
// completes, loses its last arrival to a straggler-deadline salvage,
// or survives a daemon crash after half of each sender's ranks and is
// replayed from the journal. Every case must finalize to the bytes
// core.Finalize (or the matching salvage finalize) gives for the
// same tracers, keep no payload and no walk once finalized, and leave
// no goroutine behind.
func TestArrivalOrderByteIdentical(t *testing.T) {
	const n = 12
	const deadline = 400 * time.Millisecond
	tracers := traceTracers(t, n)
	snaps := core.Snapshots(tracers)
	full, _ := core.Finalize(tracers)
	wantFull := tracetest.Bytes(t, full)

	var inOrder, evens, odds []int
	for r := 0; r < n; r++ {
		inOrder = append(inOrder, r)
		if r%2 == 0 {
			evens = append(evens, r)
		} else {
			odds = append(odds, r)
		}
	}
	reversed := slices.Clone(inOrder)
	slices.Reverse(reversed)
	orders := []struct {
		name    string
		senders [][]int // each sender's ranks, in its send order
	}{
		{"in-order", [][]int{inOrder}},
		{"reversed", [][]int{reversed}},
		{"shuffled", [][]int{rand.New(rand.NewSource(17)).Perm(n)}},
		{"rank0-last", [][]int{append(slices.Clone(inOrder[1:]), 0)}},
		{"two-senders", [][]int{evens, odds}},
	}

	// send ships each sender's ranks from its own goroutine through c.
	send := func(t *testing.T, c *collect.Client, senders [][]int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, len(senders))
		for i, ranks := range senders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, r := range ranks {
					if err := c.SendSnapshot(snaps[r]); err != nil {
						errs[i] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
	}

	for _, o := range orders {
		for _, resident := range []int{0, 3} {
			for _, mode := range []string{"complete", "salvage", "restart"} {
				t.Run(fmt.Sprintf("%s/resident=%d/%s", o.name, resident, mode), func(t *testing.T) {
					check := leaktest.Baseline(t)
					cfg := collect.Config{Listen: "127.0.0.1:0", OutDir: t.TempDir(), MaxResidentSnapshots: resident}
					first := slices.Clone(o.senders)
					var rest [][]int
					want := wantFull
					switch mode {
					case "salvage":
						// The last arrival never comes: the deadline salvages the run
						// with that rank's stream empty, as a local salvage does for a
						// rank that traced nothing.
						last := first[len(first)-1]
						missing := last[len(last)-1]
						first[len(first)-1] = last[:len(last)-1]
						cfg.StragglerDeadline = deadline
						salvaged := slices.Clone(tracers)
						salvaged[missing] = core.NewTracer(missing, nil, core.Options{})
						f, _ := core.FinalizeSnapshots(core.Snapshots(salvaged), core.Options{}, core.NewSalvageInfo(map[int]error{missing: errors.New("straggler")},
							fmt.Sprintf("collector: straggler deadline (%s): %d/%d ranks reported", deadline, n-1, n)))
						want = tracetest.Bytes(t, f)
					case "restart":
						for i, ranks := range o.senders {
							first[i] = ranks[:len(ranks)/2]
							rest = append(rest, ranks[len(ranks)/2:])
						}
					}

					srv, err := collect.Start(cfg)
					if err != nil {
						t.Fatal(err)
					}
					c := client(srv, "arrival", n)
					send(t, c, first)
					if mode == "restart" {
						c.Close()
						srv.CrashStop()
						if srv, err = collect.Start(cfg); err != nil {
							t.Fatal(err)
						}
						c = client(srv, "arrival", n)
						send(t, c, rest)
					}
					got, err := c.WaitTrace()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("collected trace differs from the local finalize: %d vs %d bytes", len(got), len(want))
					}
					if ranks, walk := srv.RunPayloads("arrival"); ranks != 0 || walk {
						t.Fatalf("finalized run still holds %d ranks' payloads (walk kept: %v)", ranks, walk)
					}
					if err := srv.Close(); err != nil {
						t.Fatal(err)
					}
					check()
				})
			}
		}
	}
}
