package pilgrim_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/mpi"
)

func simOpts() mpi.Options { return mpi.Options{Timeout: 60 * time.Second} }

// ring is a small SPMD body: each rank sends to its right neighbour
// and receives from the left, in a loop, then allreduces.
func ring(iters int) func(p *mpi.Proc) {
	return func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		n := p.Size()
		buf := p.Alloc(8)
		out := p.Alloc(8)
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		for i := 0; i < iters; i++ {
			p.Compute(5000)
			p.Sendrecv(buf.Ptr(0), 1, mpi.Double, right, 7,
				out.Ptr(0), 1, mpi.Double, left, 7, w, nil)
			p.Allreduce(buf.Ptr(0), out.Ptr(0), 1, mpi.Double, mpi.OpSum, w)
		}
		buf.Free()
		out.Free()
		p.Finalize()
	}
}

func TestRunRingLossless(t *testing.T) {
	const n = 6
	tracers, err := traceRun(n, pilgrim.Options{Verify: true}, simOpts(), ring(10))
	if err != nil {
		t.Fatal(err)
	}
	file, stats := pilgrim.Finalize(tracers)
	if stats.TotalCalls != int64(n*(2+2*10)) { // Init+Finalize + 2 calls/iter
		t.Fatalf("TotalCalls = %d", stats.TotalCalls)
	}
	if err := pilgrim.VerifyLossless(file, tracers); err != nil {
		t.Fatal(err)
	}
	// Relative encoding folds the ring into 3 signature classes:
	// interior ranks (deltas ±1) plus the two wrap boundaries, whose
	// deltas are ∓(n-1) — the 1-D analogue of the paper's 9 classes
	// for a 2-D stencil and 27 for the periodic 3-D stencil (§4.1).
	if stats.UniqueCFGs != 3 {
		t.Errorf("ring should produce 3 unique grammars, got %d", stats.UniqueCFGs)
	}
}

func TestDecodeRankContents(t *testing.T) {
	file, _, err := pilgrim.Run(4, pilgrim.Options{}, ring(3))
	if err != nil {
		t.Fatal(err)
	}
	calls, err := pilgrim.DecodeRank(file, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Expected per rank: Init, then 3×(Sendrecv, Allreduce), Finalize.
	if len(calls) != 2+6 {
		t.Fatalf("decoded %d calls", len(calls))
	}
	if calls[0].Func.Name() != "MPI_Init" {
		t.Errorf("first call = %s", calls[0].Func.Name())
	}
	if calls[1].Func.Name() != "MPI_Sendrecv" {
		t.Errorf("second call = %s", calls[1].Func.Name())
	}
	if calls[len(calls)-1].Func.Name() != "MPI_Finalize" {
		t.Errorf("last call = %s", calls[len(calls)-1].Func.Name())
	}
	// The Sendrecv dest is relative +1: resolving against rank 2 gives 3.
	sr := calls[1]
	if got := sr.Args[3].Resolve(2); got != 3 {
		t.Errorf("dest resolves to %d, want 3", got)
	}
	if got := sr.Args[8].Resolve(2); got != 1 {
		t.Errorf("source resolves to %d, want 1", got)
	}
}

func TestTraceFileRoundtrip(t *testing.T) {
	file, _, err := pilgrim.Run(4, pilgrim.Options{TimingMode: pilgrim.TimingLossy}, ring(5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ring.pilgrim")
	if err := file.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := pilgrim.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRanks != file.NumRanks || loaded.TimingMode != file.TimingMode {
		t.Fatal("header mismatch after roundtrip")
	}
	sameCalls(t, file, loaded)
	fi, _ := os.Stat(path)
	if int(fi.Size()) != file.SizeBytes() {
		t.Errorf("SizeBytes %d != on-disk %d", file.SizeBytes(), fi.Size())
	}
}

func TestConstantTraceSizeAcrossIterations(t *testing.T) {
	// §4.1: for a regular code the trace size must not grow with the
	// number of iterations (the run-length grammar holds the count).
	sizes := map[int]int{}
	for _, iters := range []int{10, 100, 1000} {
		file, _, err := pilgrim.Run(4, pilgrim.Options{}, ring(iters))
		if err != nil {
			t.Fatal(err)
		}
		sizes[iters] = file.SizeBytes()
	}
	// The grammar structure is constant; only the run-length counters
	// grow, by a logarithmic number of bits (§2.2).
	if sizes[1000]-sizes[10] > 16 {
		t.Errorf("trace size grew more than counter width with iterations: %v", sizes)
	}
}

func TestConstantTraceSizeAcrossRanks(t *testing.T) {
	// §4.1: a periodic ring has one communication pattern; beyond a
	// handful of ranks the trace size must not grow with P.
	sizes := map[int]int{}
	for _, n := range []int{8, 16, 32, 64} {
		file, _, err := pilgrim.Run(n, pilgrim.Options{}, ring(20))
		if err != nil {
			t.Fatal(err)
		}
		sizes[n] = file.SizeBytes()
	}
	// All signature classes exist once every wrap/tag boundary case
	// has appeared; beyond that only the aggregated call counters in
	// the CST widen (logarithmically, as varints).
	if sizes[32] != sizes[16] || sizes[64]-sizes[16] > 8 {
		t.Errorf("trace size grew with ranks on a symmetric ring: %v", sizes)
	}
}

func TestLossyTimingVerifies(t *testing.T) {
	tracers, err := traceRun(4, pilgrim.Options{TimingMode: pilgrim.TimingLossy, TimingBase: 1.2, Verify: true}, simOpts(), ring(25))
	if err != nil {
		t.Fatal(err)
	}
	file, _ := pilgrim.Finalize(tracers)
	if file.TimingMode != trace.TimingLossy {
		t.Fatal("timing mode lost")
	}
	if err := pilgrim.VerifyLossless(file, tracers); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsBadTimingBase: a lossy base that is not finite and
// greater than 1 is an error before any rank runs, never a panic or a
// trace. Aggregated mode never bins, so it does not look at the base.
// A timing mode neither aggregated nor lossy is an error too.
func TestRunRejectsBadTimingBase(t *testing.T) {
	for _, b := range []float64{1, 0.5, math.NaN(), math.Inf(1)} {
		file, _, err := pilgrim.Run(2, pilgrim.Options{TimingMode: pilgrim.TimingLossy, TimingBase: b}, ring(2))
		var be *trace.TimingBaseError
		if !errors.As(err, &be) || file != nil {
			t.Fatalf("base %v: file %v, err %v; want no file and a TimingBaseError", b, file != nil, err)
		}
	}
	if _, _, err := pilgrim.Run(2, pilgrim.Options{TimingBase: 0.5}, ring(2)); err != nil {
		t.Fatalf("aggregated run with an unused base: %v", err)
	}
	if file, _, err := pilgrim.Run(2, pilgrim.Options{TimingMode: 5}, ring(2)); err == nil || file != nil {
		t.Fatalf("timing mode 5: file %v, err %v; want no file and an error", file != nil, err)
	}
}

func TestNondeterministicWaitanyStillLossless(t *testing.T) {
	// The paper's §1 motivating example: completion order varies, but
	// the trace must capture the actual order and stay decodable.
	body := func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		n := p.Size()
		buf := p.Alloc(4 * n)
		if p.Rank() == 0 {
			reqs := make([]*mpi.Request, n-1)
			for i := 1; i < n; i++ {
				reqs[i-1], _ = p.Irecv(buf.Ptr(4*i), 1, mpi.Int, i, 5, w)
			}
			remaining := len(reqs)
			for remaining > 0 {
				idx, _ := p.Testsome(reqs, make([]mpi.Status, len(reqs)))
				for _, i := range idx {
					reqs[i] = nil
					remaining--
				}
			}
		} else {
			p.Compute(int64(p.Rank()) * 1000)
			p.Send(buf.Ptr(0), 1, mpi.Int, 0, 5, w)
		}
		p.Finalize()
	}
	tracers, err := traceRun(5, pilgrim.Options{Verify: true}, simOpts(), body)
	if err != nil {
		t.Fatal(err)
	}
	file, _ := pilgrim.Finalize(tracers)
	if err := pilgrim.VerifyLossless(file, tracers); err != nil {
		t.Fatal(err)
	}
	// Rank 0 must have recorded its Testsome calls (which ScalaTrace
	// and Cypress drop, per Table 1).
	calls, err := pilgrim.DecodeRank(file, 0)
	if err != nil {
		t.Fatal(err)
	}
	testsomes := 0
	for _, c := range calls {
		if c.Func.Name() == "MPI_Testsome" {
			testsomes++
		}
	}
	if testsomes == 0 {
		t.Fatal("Testsome calls missing from the trace")
	}
}

func TestCommCreationTracedWithGlobalIDs(t *testing.T) {
	body := func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		sub, _ := p.CommSplit(w, p.Rank()%2, p.Rank())
		buf := p.Alloc(8)
		out := p.Alloc(8)
		p.Allreduce(buf.Ptr(0), out.Ptr(0), 1, mpi.Double, mpi.OpSum, sub)
		p.CommFree(sub)
		p.Finalize()
	}
	file, stats, err := pilgrim.Run(4, pilgrim.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	// All ranks created one comm; both halves allreduce over the
	// world-wide max, so the two split comms get distinct ids and
	// every rank's Allreduce record carries its own comm's id.
	calls0, _ := pilgrim.DecodeRank(file, 0)
	calls1, _ := pilgrim.DecodeRank(file, 1)
	id0, id1 := int64(-9), int64(-9)
	for _, c := range calls0 {
		if c.Func.Name() == "MPI_Allreduce" {
			id0 = c.Args[5].I
		}
	}
	for _, c := range calls1 {
		if c.Func.Name() == "MPI_Allreduce" {
			id1 = c.Args[5].I
		}
	}
	if id0 != 2 || id1 != 2 {
		// Disjoint groups may (and here do) receive the same id: the
		// paper's algorithm only guarantees per-process uniqueness and
		// group-wide agreement (§3.3.1). Both halves see max=1, so
		// both new comms get id 2 — which also helps the two halves'
		// grammars stay identical.
		t.Fatalf("split comm ids = %d, %d, want 2, 2", id0, id1)
	}
	_ = stats
}

func TestCommIdupTracedAndResolved(t *testing.T) {
	body := func(p *mpi.Proc) {
		p.Init()
		w := p.World()
		nc, req, err := p.CommIdup(w)
		if err != nil {
			panic(err)
		}
		p.Wait(req, nil)
		buf := p.Alloc(8)
		out := p.Alloc(8)
		p.Allreduce(buf.Ptr(0), out.Ptr(0), 1, mpi.Double, mpi.OpSum, nc)
		p.Finalize()
	}
	file, _, err := pilgrim.Run(4, pilgrim.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	calls, _ := pilgrim.DecodeRank(file, 0)
	var allreduceCommID int64 = -9
	for _, c := range calls {
		if c.Func.Name() == "MPI_Allreduce" {
			allreduceCommID = c.Args[5].I
		}
	}
	if allreduceCommID != 2 {
		t.Fatalf("idup comm id in later use = %d, want 2", allreduceCommID)
	}
}

func TestIdenticalGrammarFastPath(t *testing.T) {
	// All ranks symmetric -> 1 unique grammar; trace size must be far
	// below the sum of per-rank grammar sizes.
	n := 16
	file, stats, err := pilgrim.Run(n, pilgrim.Options{}, ring(50))
	if err != nil {
		t.Fatal(err)
	}
	// 3 wrap classes + 1 tag==rank artifact (tag 7 == rank 7).
	if stats.UniqueCFGs > 4 {
		t.Fatalf("unique grammars = %d", stats.UniqueCFGs)
	}
	if len(file.Grammars) != stats.UniqueCFGs {
		t.Fatalf("stored grammars = %d", len(file.Grammars))
	}
	idx, err := file.GrammarIndex()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != n {
		t.Fatalf("rank map covers %d ranks", len(idx))
	}
}

func TestStackVariableFallback(t *testing.T) {
	body := func(p *mpi.Proc) {
		p.Init()
		sv := p.StackVar(8)
		out := p.Alloc(8)
		p.Allreduce(sv, out.Ptr(0), 1, mpi.Double, mpi.OpSum, p.World())
		p.Finalize()
	}
	file, _, err := pilgrim.Run(2, pilgrim.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	calls, _ := pilgrim.DecodeRank(file, 0)
	var found bool
	for _, c := range calls {
		if c.Func.Name() == "MPI_Allreduce" {
			if c.Args[0].String() == "stack0" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("stack buffer not encoded with the conservative fallback")
	}
}

func TestFinalizeEmpty(t *testing.T) {
	file, stats := pilgrim.Finalize(nil)
	if stats.TotalCalls != 0 {
		t.Fatal("nonzero calls for empty finalize")
	}
	var buf bytes.Buffer
	if _, err := file.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRanks != 0 {
		t.Fatal("bad empty roundtrip")
	}
}
