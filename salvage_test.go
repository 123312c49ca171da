package pilgrim_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/mpi"
)

func crashPlan(rank int, atCall int64) mpi.Options {
	return mpi.Options{
		Timeout:   60 * time.Second,
		FaultPlan: &mpi.FaultPlan{Faults: []mpi.Fault{{Kind: mpi.FaultCrash, Rank: rank, AtCall: atCall}}},
	}
}

func TestRunSimSalvagesOnCrash(t *testing.T) {
	file, stats, err := pilgrim.RunSim(4, pilgrim.Options{Verify: true}, crashPlan(2, 20), ring(50))
	if err == nil {
		t.Fatal("expected the injected crash to fail the run")
	}
	if file == nil {
		t.Fatal("no salvaged trace alongside the error")
	}
	if file.Salvage == nil {
		t.Fatal("salvaged trace carries no salvage info")
	}
	if len(file.Salvage.FailedRanks) != 1 || file.Salvage.FailedRanks[0] != 2 {
		t.Errorf("failed ranks = %v, want [2] (revoked survivors are not failures)", file.Salvage.FailedRanks)
	}
	if file.Salvage.Reason == "" {
		t.Error("salvage reason empty")
	}
	// The crashed rank recorded fewer calls than the survivors could.
	if file.Salvage.Calls[2] <= 0 || stats.TotalCalls <= 0 {
		t.Errorf("salvage calls = %v (stats %d), want positive counts", file.Salvage.Calls, stats.TotalCalls)
	}
	// Every rank's partial stream must decode.
	for r := 0; r < 4; r++ {
		calls, err := pilgrim.DecodeRank(file, r)
		if err != nil {
			t.Fatalf("decode rank %d: %v", r, err)
		}
		if int64(len(calls)) != file.Salvage.Calls[r] {
			t.Errorf("rank %d decoded %d calls, salvage recorded %d", r, len(calls), file.Salvage.Calls[r])
		}
	}
}

func TestSalvageLosslessToFailurePoint(t *testing.T) {
	// Trace on tracers of the test's own so VerifySalvaged can compare
	// the salvaged trace against each rank's captured raw stream.
	const n = 4
	tracers, err := traceRun(n, pilgrim.Options{Verify: true}, crashPlan(1, 15), ring(50))
	if err == nil {
		t.Fatal("expected the injected crash to fail the run")
	}
	file, stats := pilgrim.SalvageFinalize(tracers, err)
	if stats.TotalCalls == 0 {
		t.Fatal("salvage captured no calls")
	}
	if err := pilgrim.VerifySalvaged(file, tracers); err != nil {
		t.Fatalf("salvaged trace is not lossless to the failure point: %v", err)
	}
	// The dead rank's stream is truncated exactly at the failure point:
	// the crash fires at call entry 15, so 14 calls were intercepted.
	if file.Salvage.Calls[1] != 14 {
		t.Errorf("crashed rank captured %d calls, want 14 (died entering call 15)", file.Salvage.Calls[1])
	}
}

func TestSalvageRoundtripsThroughDisk(t *testing.T) {
	file, _, err := pilgrim.RunSim(3, pilgrim.Options{}, crashPlan(0, 10), ring(30))
	if err == nil || file == nil {
		t.Fatal("expected a salvaged trace")
	}
	path := t.TempDir() + "/partial.pilgrim"
	if err := file.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := pilgrim.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Salvage == nil || got.Salvage.Reason != file.Salvage.Reason {
		t.Fatalf("salvage info lost on disk roundtrip: %+v", got.Salvage)
	}
	sameCalls(t, file, got)
}

func TestSalvageDeterministicAcrossRuns(t *testing.T) {
	// Same seed, same fault plan: the two salvaged traces must decode
	// to identical call streams on every rank.
	decode := func() [][]string {
		opts := crashPlan(2, 25)
		opts.Seed = 7
		file, _, err := pilgrim.RunSim(4, pilgrim.Options{}, opts, ring(60))
		if err == nil || file == nil {
			t.Fatal("expected a salvaged trace")
		}
		out := make([][]string, 4)
		for r := 0; r < 4; r++ {
			calls, err := pilgrim.DecodeRank(file, r)
			if err != nil {
				t.Fatalf("decode rank %d: %v", r, err)
			}
			for _, c := range calls {
				out[r] = append(out[r], c.Decoded.String())
			}
		}
		return out
	}
	a, b := decode(), decode()
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("rank %d stream lengths differ across identical runs: %d vs %d", r, len(a[r]), len(b[r]))
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("rank %d call %d differs across identical runs:\n  %s\n  %s", r, i, a[r][i], b[r][i])
			}
		}
	}
}

func TestConcurrentSnapshotWhileTracing(t *testing.T) {
	// A monitor goroutine snapshots every tracer while the ranks are
	// actively tracing; meaningful chiefly under -race. Each snapshot
	// must itself be internally consistent (grammar expands to the
	// snapshot's call count).
	const n = 4
	tracers := make([]*pilgrim.Tracer, n)
	ics := make([]mpi.Interceptor, n)
	for i := range tracers {
		tracers[i] = pilgrim.NewTracer(i, nil, pilgrim.Options{})
		ics[i] = tracers[i]
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tr := range tracers {
				s := tr.Snapshot()
				if got := int64(len(s.Grammar.Expand(0))); got != s.Calls {
					t.Errorf("snapshot rank %d: grammar expands to %d calls, header says %d", s.Rank, got, s.Calls)
					return
				}
			}
		}
	}()
	body := ring(40)
	opts := mpi.Options{Timeout: 60 * time.Second, Interceptors: ics}
	if err := mpi.RunOpt(n, opts, func(p *mpi.Proc) {
		pilgrim.BindOOB(tracers[p.Rank()], p)
		body(p)
	}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	// After the run the snapshot path and the normal finalize must agree.
	file, stats := pilgrim.Finalize(tracers)
	if stats.TotalCalls == 0 {
		t.Fatal("no calls traced")
	}
	for r := 0; r < n; r++ {
		if _, err := pilgrim.DecodeRank(file, r); err != nil {
			t.Fatalf("decode rank %d: %v", r, err)
		}
	}
}

func TestSalvageAbortKeepsTrace(t *testing.T) {
	// MPI_Abort mid-run: the salvaged trace tags the aborting rank.
	file, _, err := pilgrim.RunSim(3, pilgrim.Options{}, simOpts(), func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		buf := p.Alloc(8)
		for i := 0; i < 10; i++ {
			p.Allreduce(buf.Ptr(0), buf.Ptr(0), 1, mpi.Double, mpi.OpSum, w)
			if i == 5 && p.Rank() == 1 {
				p.Abort(w, 99)
			}
		}
		buf.Free()
		p.Finalize()
	})
	if err == nil {
		t.Fatal("expected abort to fail the run")
	}
	var ae *mpi.AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v does not carry the abort", err)
	}
	if file == nil || file.Salvage == nil {
		t.Fatal("no salvaged trace after abort")
	}
	if len(file.Salvage.FailedRanks) != 1 || file.Salvage.FailedRanks[0] != 1 {
		t.Errorf("failed ranks = %v, want [1]", file.Salvage.FailedRanks)
	}
}
