package core_test

import (
	"math"
	"testing"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/timing"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
)

// mathTimes recovers one rank's times with math.Pow on every term: the
// reconstruction as written before bins and values came from tables.
func mathTimes(terms, durSeq, intSeq []int32, b float64) []timing.CallTime {
	value := func(term int32) float64 {
		if term == 0 {
			return 0
		}
		return math.Pow(b, float64(term-128))
	}
	perSig := map[int32]float64{}
	out := make([]timing.CallTime, len(terms))
	for i, term := range terms {
		recon := perSig[term] + value(intSeq[i])
		perSig[term] = recon
		start := int64(recon)
		out[i] = timing.CallTime{Start: start, End: start + int64(value(durSeq[i]))}
	}
	return out
}

// TestDecodeLossyTimesUnchanged: DecodeRank's recovered TStart/TEnd,
// and a reconstructor's Series over the same streams, are bit-identical
// to the math reconstruction on every call of every rank of three lossy
// traces.
func TestDecodeLossyTimesUnchanged(t *testing.T) {
	for _, w := range []struct {
		name  string
		iters int
		base  float64
	}{
		{"cellular", 20, 1.2},
		{"stencil2d", 30, 1.05},
		{"cg", 4, 2.0},
	} {
		f := tracetest.Read(t, traced(t, w.name, 8, w.iters, pilgrim.Options{TimingMode: pilgrim.TimingLossy, TimingBase: w.base}))
		for r := 0; r < f.NumRanks; r++ {
			calls, err := core.DecodeRank(f, r)
			if err != nil {
				t.Fatal(err)
			}
			terms, err := f.Terms(r)
			if err != nil {
				t.Fatal(err)
			}
			durSeq := f.DurGrammars[f.DurIndex[r]].Expand(0)
			intSeq := f.IntGrammars[f.IntIndex[r]].Expand(0)
			want := mathTimes(terms, durSeq, intSeq, f.TimingBase)
			for i, c := range calls {
				if c.TStart != want[i].Start || c.TEnd != want[i].End {
					t.Fatalf("%s rank %d call %d: decoded [%d, %d], math gives [%d, %d]",
						w.name, r, i, c.TStart, c.TEnd, want[i].Start, want[i].End)
				}
			}
			got, err := timing.NewReconstructor(f.TimingBase).Series(terms, durSeq, intSeq)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s rank %d call %d: Series gives %v, math gives %v", w.name, r, i, got[i], want[i])
				}
			}
		}
	}
}
