package core

import (
	"fmt"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/timing"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// DecodedCall is one reconstructed call of one rank: its CST entry —
// the call's Func and Args and the entry's AvgDuration, shared with
// every call naming that entry and read-only — and its wall-clock
// times, in nanoseconds from the rank's first call, which DecodeRank
// resolves in both timing modes. It is 24 bytes on a 64-bit machine.
type DecodedCall struct {
	*trace.Entry
	TStart, TEnd int64
}

// NewCall returns a call of d with the given mean duration, on an
// entry of its own that no trace holds: how a program or test that
// decodes a bare signature builds what DecodeRank's readers take.
func NewCall(d sig.Decoded, avgDuration int64) DecodedCall {
	return DecodedCall{Entry: &trace.Entry{Decoded: d, AvgDuration: avgDuration}}
}

// DecodeRank expands rank r's grammar and resolves its terminals
// through the global CST. This is the decompressor the paper uses to
// check correctness ("comparing uncompressed traces to compressed next
// decompressed traces"). Each CST entry is decoded once per file
// (trace.File.DecodedSig: a templated CST's templates once each, its
// entries by filling their lifted values in), so a rank costs its
// expansion plus a gather of one pointer per call: calls with the same
// signature share one *trace.Entry, which — like everything reached
// through it — must not be modified. Any number of goroutines may
// decode ranks of one File.
//
// DecodeRank is where a call gets its times. A lossy trace's are
// recovered from its duration and interval grammars (relative error
// below TimingBase−1, see internal/timing). An aggregated trace keeps
// one mean duration per CST entry (the paper's §3.2), so its timeline
// is those means laid end to end: from 0, each call lasting its
// entry's AvgDuration and starting where the previous one ended. The
// gather lays every call on that clock; a lossy trace's recovered
// times then replace it.
func DecodeRank(f *trace.File, rank int) ([]DecodedCall, error) {
	terms, err := f.Terms(rank)
	if err != nil {
		return nil, err
	}
	out := make([]DecodedCall, len(terms))
	var clock int64
	for i, term := range terms {
		e, err := f.DecodedSig(term)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d call %d: %w", rank, i, err)
		}
		out[i] = DecodedCall{Entry: e, TStart: clock, TEnd: clock + e.AvgDuration}
		clock = out[i].TEnd
	}

	if f.TimingMode == trace.TimingLossy {
		durSeq, intSeq, err := timingStreams(f, rank, len(terms))
		if err != nil {
			return nil, err
		}
		r := timing.NewReconstructor(f.TimingBase)
		for i := range out {
			out[i].TStart, out[i].TEnd = r.Next(terms[i], out[i].Func, durSeq[i], intSeq[i])
		}
	}
	return out, nil
}

// timingStreams expands rank's duration and interval grammars, which
// must hold one terminal per call of its n.
func timingStreams(f *trace.File, rank, n int) (durSeq, intSeq []int32, err error) {
	if rank < len(f.DurIndex) && int(f.DurIndex[rank]) < len(f.DurGrammars) {
		durSeq = f.DurGrammars[f.DurIndex[rank]].Expand(0)
	}
	if rank < len(f.IntIndex) && int(f.IntIndex[rank]) < len(f.IntGrammars) {
		intSeq = f.IntGrammars[f.IntIndex[rank]].Expand(0)
	}
	if len(durSeq) != n || len(intSeq) != n {
		return nil, nil, fmt.Errorf("core: rank %d timing streams (%d/%d) do not match %d calls",
			rank, len(durSeq), len(intSeq), n)
	}
	return durSeq, intSeq, nil
}

// RankSignatures returns rank r's raw signature byte stream (the
// uncompressed per-call encoding), used for lossless verification.
func RankSignatures(f *trace.File, rank int) ([]string, error) {
	terms, err := rankTerms(f, rank)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(terms))
	for i, term := range terms {
		out[i] = f.CST.SigString(term)
	}
	return out, nil
}

// rankTerms is f.Terms with every terminal checked against the CST.
func rankTerms(f *trace.File, rank int) ([]int32, error) {
	terms, err := f.Terms(rank)
	if err != nil {
		return nil, err
	}
	for i, term := range terms {
		if int(term) >= f.CST.Len() {
			return nil, fmt.Errorf("core: rank %d call %d references CST entry %d of %d",
				rank, i, term, f.CST.Len())
		}
	}
	return terms, nil
}

// VerifyLossless checks that the compressed trace decodes to exactly
// the signature streams the tracers observed (requires Options.Verify
// on every tracer). Timing is excluded, as in the paper ("the
// compression is lossless (except timing)"), but in lossy timing mode
// the recovered wall-clock times are checked against the configured
// relative error bound.
func VerifyLossless(f *trace.File, tracers []*Tracer) error {
	if f.NumRanks != len(tracers) {
		return fmt.Errorf("core: %d ranks in trace, %d tracers", f.NumRanks, len(tracers))
	}
	for r, tr := range tracers {
		terms, err := rankTerms(f, r)
		if err != nil {
			return err
		}
		want := tr.RawSignatures()
		if len(terms) != len(want) {
			return fmt.Errorf("core: rank %d decoded %d calls, traced %d", r, len(terms), len(want))
		}
		for i, term := range terms {
			if got := f.CST.SigString(term); got != want[i] {
				gd, _ := sig.Decode([]byte(got))
				wd, _ := sig.Decode([]byte(want[i]))
				return fmt.Errorf("core: rank %d call %d mismatch:\n  decoded %s\n  traced  %s", r, i, gd, wd)
			}
		}
		if f.TimingMode == trace.TimingLossy {
			if err := verifyTiming(f, r, tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// VerifySalvaged checks a salvaged trace: it must carry salvage info,
// its per-rank recorded call counts must match what each tracer
// actually captured, and the decoded streams must be lossless up to
// each rank's failure point (survivors' full streams, failed ranks'
// streams to their last intercepted call).
func VerifySalvaged(f *trace.File, tracers []*Tracer) error {
	if f.Salvage == nil {
		return fmt.Errorf("core: trace carries no salvage info")
	}
	if len(f.Salvage.Calls) != len(tracers) {
		return fmt.Errorf("core: salvage records %d ranks, %d tracers", len(f.Salvage.Calls), len(tracers))
	}
	for r, tr := range tracers {
		if want := tr.Snapshot().Calls; f.Salvage.Calls[r] != want {
			return fmt.Errorf("core: salvage records %d calls for rank %d, tracer captured %d",
				f.Salvage.Calls[r], r, want)
		}
	}
	return VerifyLossless(f, tracers)
}

func verifyTiming(f *trace.File, rank int, tr *Tracer) error {
	calls, err := DecodeRank(f, rank)
	if err != nil {
		return err
	}
	times := tr.RawTimes()
	if len(calls) != len(times) {
		return fmt.Errorf("core: rank %d timing length mismatch", rank)
	}
	bound := f.TimingBase - 1 + 1e-9
	for i, c := range calls {
		ts, te := times[i][0], times[i][1]
		if relErr(float64(c.TStart), float64(ts)) > bound {
			return fmt.Errorf("core: rank %d call %d tStart error %.4f exceeds %.4f (got %d want %d)",
				rank, i, relErr(float64(c.TStart), float64(ts)), bound, c.TStart, ts)
		}
		if relErr(float64(c.TEnd-c.TStart), float64(te-ts)) > bound {
			return fmt.Errorf("core: rank %d call %d duration error exceeds bound", rank, i)
		}
	}
	return nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d / want
}

// CallCounts tallies decoded calls per MPI function for one rank
// (handy for dump tools and tests).
func CallCounts(calls []DecodedCall) map[mpispec.FuncID]int {
	m := map[mpispec.FuncID]int{}
	for _, c := range calls {
		m[c.Func]++
	}
	return m
}
