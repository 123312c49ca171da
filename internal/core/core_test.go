package core

import (
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// feed pushes a synthetic call through a tracer.
func feed(t *Tracer, f mpispec.FuncID, args []mpispec.Value, ts, te int64) {
	rec := &mpispec.CallRecord{Func: f, Args: args, TStart: ts, TEnd: te, Rank: t.Rank}
	t.Pre(rec)
	t.Post(rec)
}

func sendArgs(dest, tag int64, rank int64) []mpispec.Value {
	return []mpispec.Value{
		{Kind: mpispec.KPtr, I: 0x1000},
		{Kind: mpispec.KInt, I: 1},
		{Kind: mpispec.KDatatype, I: 18},
		{Kind: mpispec.KRank, I: dest},
		{Kind: mpispec.KTag, I: tag},
		{Kind: mpispec.KComm, I: 1, Arr: []int64{rank}},
	}
}

func TestFinalizeIdenticalRanks(t *testing.T) {
	tracers := make([]*Tracer, 8)
	for r := range tracers {
		tracers[r] = NewTracer(r, nil, Options{Verify: true})
		tracers[r].MemAlloc(0x1000, 64, 0)
		for i := 0; i < 100; i++ {
			feed(tracers[r], mpispec.FSend, sendArgs(int64(r+1), 999, int64(r)), int64(i*10), int64(i*10+5))
		}
	}
	f, stats := Finalize(tracers)
	if stats.UniqueCFGs != 1 {
		t.Fatalf("identical ranks: %d unique grammars", stats.UniqueCFGs)
	}
	if stats.GlobalCST != 1 {
		t.Fatalf("identical signatures: CST = %d", stats.GlobalCST)
	}
	if stats.TotalCalls != 800 {
		t.Fatalf("TotalCalls = %d", stats.TotalCalls)
	}
	if err := VerifyLossless(f, tracers); err != nil {
		t.Fatal(err)
	}
	// Aggregated duration survived: mean of 5ns calls.
	calls, err := DecodeRank(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if calls[0].AvgDuration != 5 {
		t.Fatalf("avg duration = %d", calls[0].AvgDuration)
	}
}

func TestFinalizeDistinctRanks(t *testing.T) {
	tracers := make([]*Tracer, 4)
	for r := range tracers {
		tracers[r] = NewTracer(r, nil, Options{Verify: true})
		tracers[r].MemAlloc(0x1000, 64, 0)
		// Rank-unique tag -> distinct signatures and grammars.
		feed(tracers[r], mpispec.FSend, sendArgs(int64(r+1), int64(1000*(r+1)), int64(r)), 0, 10)
	}
	f, stats := Finalize(tracers)
	if stats.UniqueCFGs != 4 || stats.GlobalCST != 4 {
		t.Fatalf("distinct ranks: uCFG=%d CST=%d", stats.UniqueCFGs, stats.GlobalCST)
	}
	if err := VerifyLossless(f, tracers); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyLosslessDetectsCorruption(t *testing.T) {
	tracers := []*Tracer{NewTracer(0, nil, Options{Verify: true})}
	tracers[0].MemAlloc(0x1000, 64, 0)
	feed(tracers[0], mpispec.FSend, sendArgs(1, 5, 0), 0, 10)
	f, _ := Finalize(tracers)
	// Corrupt the raw capture to simulate a mismatch.
	tracers[0].verify.sigs[0] = "corrupted"
	err := VerifyLossless(f, tracers)
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestVerifyLosslessRankCountMismatch(t *testing.T) {
	tracers := []*Tracer{NewTracer(0, nil, Options{Verify: true})}
	feed(tracers[0], mpispec.FInit, nil, 0, 1)
	f, _ := Finalize(tracers)
	if err := VerifyLossless(f, nil); err == nil {
		t.Fatal("rank count mismatch not detected")
	}
}

func TestDecodeRankErrors(t *testing.T) {
	tracers := []*Tracer{NewTracer(0, nil, Options{})}
	feed(tracers[0], mpispec.FInit, nil, 0, 1)
	f, _ := Finalize(tracers)
	if _, err := DecodeRank(f, 5); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

func TestLossyTimingLengthMismatchDetected(t *testing.T) {
	tr := NewTracer(0, nil, Options{TimingMode: trace.TimingLossy, TimingBase: 1.2})
	feed(tr, mpispec.FInit, nil, 100, 200)
	f, _ := Finalize([]*Tracer{tr})
	// Sabotage the duration index.
	f.DurIndex = nil
	if _, err := DecodeRank(f, 0); err == nil {
		t.Fatal("timing stream mismatch not detected")
	}
}

func TestCallCounts(t *testing.T) {
	tr := NewTracer(0, nil, Options{})
	tr.MemAlloc(0x1000, 64, 0)
	feed(tr, mpispec.FInit, nil, 0, 1)
	for i := 0; i < 3; i++ {
		feed(tr, mpispec.FSend, sendArgs(1, 5, 0), 0, 1)
	}
	f, _ := Finalize([]*Tracer{tr})
	calls, err := DecodeRank(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := CallCounts(calls)
	if counts[mpispec.FInit] != 1 || counts[mpispec.FSend] != 3 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestTracerStatsAccumulate(t *testing.T) {
	tr := NewTracer(0, nil, Options{})
	tr.MemAlloc(0x1000, 64, 0)
	for i := 0; i < 10; i++ {
		feed(tr, mpispec.FSend, sendArgs(1, 5, 0), 0, 1)
	}
	if tr.NCalls != 10 {
		t.Fatalf("NCalls = %d", tr.NCalls)
	}
	if tr.CSTLen() != 1 {
		t.Fatalf("CSTLen = %d", tr.CSTLen())
	}
	if st := tr.GrammarStats(); st.InputLen != 10 {
		t.Fatalf("grammar InputLen = %d", st.InputLen)
	}
}
