// Package timing implements Pilgrim's lossy timing compression (§3.2).
//
// In the default (aggregated) mode only the mean duration per CST
// entry survives; that lives in the CST itself. This package provides
// the non-aggregated mode: every call's duration and interval are
// binned exponentially with a user-tunable base b (relative error at
// most b−1) and the two resulting bin sequences are compressed with
// two further Sequitur grammars, one for durations and one for
// intervals.
//
// Durations: a duration d is stored as ⌈log_b d⌉ and recovered as
// b^⌈log_b d⌉.
//
// Intervals: for each call signature, the stored intervals reconstruct
// the call's start time as the running sum Σ b^îⱼ. Each new interval
// is measured against that *reconstructed* time (not the true previous
// time), so the error in a recovered wall-clock time never compounds:
// it stays below b−1, relative.
package timing

import (
	"fmt"
	"math"

	"github.com/hpcrepro/pilgrim/internal/mpispec"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// binBias offsets bin indices so grammar terminals stay non-negative.
// Terminal 0 is reserved for the exact value 0.
const binBias = 128

const zeroTerm = 0

// expBase is one exponential-bin base with its logarithm cached: the
// binning fallback divides by log b, and recomputing math.Log(b) per
// call roughly doubles its cost. The cached value is exactly
// math.Log(b), so bins are bit-identical to the uncached computation.
// tab is the base's shared lookup table (nil past the table's cap).
type expBase struct {
	b    float64
	logB float64
	tab  *binTable
}

func newExpBase(b float64) expBase {
	logB := math.Log(b)
	return expBase{b: b, logB: logB, tab: tableFor(b, logB)}
}

// bin is binOf(v) under this base, by table where the table covers v.
func (e expBase) bin(v float64) int32 {
	if e.tab != nil && v >= 1 && v < 0x1p63 {
		return e.tab.bin(v)
	}
	return binOf(v, e.logB)
}

// value is valueOf(term) under this base, by table where it covers term.
func (e expBase) value(term int32) float64 {
	if e.tab != nil && uint32(term) < uint32(len(e.tab.vals)) {
		return e.tab.vals[term]
	}
	return valueOf(term, e.b)
}

// ValidBase reports whether b can serve as an exponential-bin base:
// finite and greater than 1.
func ValidBase(b float64) bool { return b > 1 && !math.IsInf(b, 1) }

// Compressor builds the duration and interval grammars for one rank,
// in one allocation. Record writes the two grammars' headers on every
// call, so they sit 128 B from either end: a compressor allocated next
// to another rank's shares no cache line, nor an adjacent one, that
// Record writes with it (DESIGN §4, "One allocation per rank"). Ahead
// of them are the read-only base and perSig, which only a call that
// meets a new terminal writes; after them, padding. At 512 B the
// allocator adds no header and rounds nothing.
type Compressor struct {
	base expBase
	// perSig holds each signature terminal's Σ reconstructed intervals.
	// Terminals are contiguous small ints, so a dense slice (grown on
	// demand) replaces the former map: no hashing and no allocation on
	// the per-call path once the terminal has been seen.
	perSig []float64
	_      [80]byte

	durG, intG sequitur.Grammar
	_          [128]byte
}

// New returns a compressor with relative error bound base−1 (the
// paper evaluates base = 1.2, i.e. 20%).
func New(base float64) *Compressor {
	if !ValidBase(base) {
		panic("timing: base must be finite and > 1")
	}
	c := &Compressor{base: newExpBase(base)}
	c.durG.Init(nil)
	c.intG.Init(nil)
	return c
}

// binOf returns the grammar terminal for value v under the base whose
// cached logarithm is logB: 0 for v <= 0, otherwise ⌈log_b v⌉ +
// binBias. It is the definition binTable reproduces, and the path for
// the values the table does not cover.
func binOf(v float64, logB float64) int32 {
	if v <= 0 {
		return zeroTerm
	}
	bin := int32(math.Ceil(math.Log(v) / logB))
	// Values in (0,1] bin to 0 or below; clamp into the biased range.
	t := bin + binBias
	if t < 1 {
		t = 1
	}
	return t
}

// valueOf inverts binOf; binTable.vals holds its results.
func valueOf(term int32, b float64) float64 {
	if term == zeroTerm {
		return 0
	}
	return math.Pow(b, float64(term-binBias))
}

// Record adds one call's timing: term is the call's CST terminal (the
// per-signature interval chains key on it), and tStart/tEnd its
// wall-clock entry and exit in nanoseconds. f, the call's function id,
// is not read: a trace stores one base for all calls. It stays in the
// signature for the benchmark harness, which calls Record with it.
func (c *Compressor) Record(term int32, f mpispec.FuncID, tStart, tEnd int64) {
	b := c.base
	dur := float64(tEnd - tStart)
	c.durG.Append(b.bin(dur))

	if int(term) >= len(c.perSig) {
		c.perSig = growDense(c.perSig, term)
	}
	recon := c.perSig[term]
	interval := float64(tStart) - recon
	it := b.bin(interval)
	c.intG.Append(it)
	c.perSig[term] = recon + b.value(it)
}

// growDense extends a dense per-terminal slice to cover term.
func growDense(s []float64, term int32) []float64 {
	if int(term) < len(s) {
		return s
	}
	return append(s, make([]float64, int(term)+1-len(s))...)
}

// DurationGrammar returns the serialized duration grammar.
func (c *Compressor) DurationGrammar() sequitur.Serialized {
	return sequitur.Serialized(c.durG.Serialize())
}

// IntervalGrammar returns the serialized interval grammar.
func (c *Compressor) IntervalGrammar() sequitur.Serialized {
	return sequitur.Serialized(c.intG.Serialize())
}

// Reconstructor recovers per-call (tStart, tEnd) from the main call
// sequence plus the two timing grammars.
type Reconstructor struct {
	base   expBase
	perSig []float64 // dense, like Compressor.perSig (post-merge terminals stay contiguous)
}

// NewReconstructor mirrors the compressor configuration.
func NewReconstructor(base float64) *Reconstructor {
	return &Reconstructor{base: newExpBase(base)}
}

// Next recovers the k-th call's times given its CST terminal and the
// k-th terminals of the duration and interval grammars.
func (r *Reconstructor) Next(term, durTerm, intTerm int32) (tStart, tEnd int64) {
	b := r.base
	r.perSig = growDense(r.perSig, term)
	recon := r.perSig[term] + b.value(intTerm)
	r.perSig[term] = recon
	// Truncate the duration on its own: ⌊recon+dur⌋−⌊recon⌋ can be one
	// off ⌊dur⌋, which breaks the error bound for calls of a few ns,
	// while ⌊bᵏ⌋ ≥ d holds for every integer d that binned to k.
	tStart = int64(recon)
	return tStart, tStart + int64(b.value(durTerm))
}

// CallTime is one call's recovered wall-clock interval, in nanoseconds
// since the rank's first recorded call.
type CallTime struct {
	Start, End int64
}

// Duration returns the recovered call duration.
func (t CallTime) Duration() int64 { return t.End - t.Start }

// Series recovers the full per-call timeline of one rank in a single
// pass: terms is the rank's call stream (a CST terminal per call, in
// order), durTerms/intTerms are the expanded duration and interval
// grammars. All three slices must have equal length. Every recovered start time and duration carries the
// paper's guarantee: relative error at most base−1 against the
// original wall clock, never compounding across calls.
//
// The receiver is single-use for a given rank: it accumulates the
// per-signature reconstructed interval chains, so reuse across ranks
// (or interleaving with Next) corrupts the recovered times.
func (r *Reconstructor) Series(terms, durTerms, intTerms []int32) ([]CallTime, error) {
	if len(durTerms) != len(terms) || len(intTerms) != len(terms) {
		return nil, fmt.Errorf("timing: stream lengths differ (terms=%d dur=%d int=%d)",
			len(terms), len(durTerms), len(intTerms))
	}
	out := make([]CallTime, len(terms))
	for i := range terms {
		s, e := r.Next(terms[i], durTerms[i], intTerms[i])
		out[i] = CallTime{Start: s, End: e}
	}
	return out, nil
}

// Bound returns the reconstructor's relative-error guarantee (base−1):
// every CallTime Series or Next produces has |recovered−true|/true at
// most this, for both start times and durations.
func (r *Reconstructor) Bound() float64 { return r.base.b - 1 }
