package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// replayTrace replays a recording into fresh tracers and finalizes them
// in memory.
func replayTrace(t *testing.T, rec *recording, lossy bool) []byte {
	t.Helper()
	var opts tracerOpts
	if lossy {
		opts.TimingMode = timingLossy
	}
	tracers := make([]*tracer, len(rec.streams))
	for r, s := range rec.streams {
		oob := &oobReplay{log: s.oob}
		tracers[r] = newTracer(r, oob, opts)
		replayInto(s, r, tracers[r])
		if oob.bad || oob.pos != len(oob.log) {
			t.Fatalf("rank %d: replay asked other out-of-band questions than the live run", r)
		}
	}
	data, err := traceWrite(finalizeInMemory(tracers))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReplayReproducesLiveTrace: for every recorded application, both
// timing modes and two seeds, the replayed streams finalize to the bytes
// the live tracers produced, and recording again with the same seed
// gives the same streams.
func TestReplayReproducesLiveTrace(t *testing.T) {
	apps := map[string]bool{}
	for _, wl := range allWorkloads {
		if apps[wl.app] {
			continue
		}
		apps[wl.app] = true
		ranks, iters := wl.sized(true)
		for _, lossy := range []bool{false, true} {
			for _, seed := range []int64{1, 7} {
				t.Run(fmt.Sprintf("%s/lossy=%v/seed=%d", wl.app, lossy, seed), func(t *testing.T) {
					rec, err := record(wl.app, ranks, iters, seed, lossy)
					if err != nil {
						t.Fatal(err)
					}
					if rec.calls == 0 {
						t.Fatal("recorded no calls")
					}
					if got := replayTrace(t, rec, lossy); !bytes.Equal(got, rec.oracle) {
						t.Fatalf("replayed trace (%d B) differs from the live one (%d B)", len(got), len(rec.oracle))
					}
					again, err := record(wl.app, ranks, iters, seed, lossy)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(again.oracle, rec.oracle) || !reflect.DeepEqual(again.streams, rec.streams) {
						t.Fatal("the same seed recorded other streams the second time")
					}
				})
			}
		}
	}
}
