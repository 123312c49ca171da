package tracetest

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// Diff compares what a reader of two traces sees and reports the first
// part that differs: a header field, a CST entry (both signatures
// decoded), a grammar or shape index, a rank-map index, a timing set
// or index, or the salvage tag. nil means a reader cannot tell them
// apart; how either file stored them is not compared.
func Diff(a, b *trace.File) error {
	switch {
	case a.NumRanks != b.NumRanks || a.TimingMode != b.TimingMode || math.Float64bits(a.TimingBase) != math.Float64bits(b.TimingBase):
		return fmt.Errorf("header: %d ranks, timing %d base %v; %d ranks, timing %d base %v",
			a.NumRanks, a.TimingMode, a.TimingBase, b.NumRanks, b.TimingMode, b.TimingBase)
	case a.CST.Len() != b.CST.Len():
		return fmt.Errorf("CST: %d entries, %d", a.CST.Len(), b.CST.Len())
	}
	for e := range int32(a.CST.Len()) {
		x, y := a.CST, b.CST
		if x.SigString(e) != y.SigString(e) || x.Count(e) != y.Count(e) || x.AvgDuration(e) != y.AvgDuration(e) {
			return fmt.Errorf("CST entry %d: %s ×%d avg %d; %s ×%d avg %d", e, decoded(x.SigString(e)),
				x.Count(e), x.AvgDuration(e), decoded(y.SigString(e)), y.Count(e), y.AvgDuration(e))
		}
	}
	for _, p := range []struct {
		part string
		a, b []sequitur.Serialized
	}{{"grammar", a.Grammars, b.Grammars}, {"duration set", a.DurGrammars, b.DurGrammars}, {"interval set", a.IntGrammars, b.IntGrammars}} {
		if i := firstDiff(p.a, p.b, slices.Equal[sequitur.Serialized]); i >= 0 {
			return fmt.Errorf("%s %d: %s", p.part, i, pair(p.a, p.b, i, func(g sequitur.Serialized) any { return fmt.Sprintf("%d ints", len(g)) }))
		}
	}
	for _, p := range []struct {
		part string
		a, b []int32
	}{{"shape index", shape(a), shape(b)}, {"rank-map index", a.RankMap, b.RankMap},
		{"duration index", a.DurIndex, b.DurIndex}, {"interval index", a.IntIndex, b.IntIndex}} {
		if i := firstDiff(p.a, p.b, func(x, y int32) bool { return x == y }); i >= 0 {
			return fmt.Errorf("%s %d: %s", p.part, i, pair(p.a, p.b, i, func(v int32) any { return v }))
		}
	}
	if !reflect.DeepEqual(a.Salvage, b.Salvage) {
		return fmt.Errorf("salvage tag: %+v; %+v", a.Salvage, b.Salvage)
	}
	return nil
}

// shape is f's Shape with nil spelled out: every grammar its own
// representative.
func shape(f *trace.File) []int32 {
	if f.Shape != nil {
		return f.Shape
	}
	s := make([]int32, len(f.Grammars))
	for i := range s {
		s[i] = -1
	}
	return s
}

// decoded is a signature as sig.Decode reads it, or its bytes.
func decoded(s string) string {
	if d, err := sig.Decode([]byte(s)); err == nil {
		return d.String()
	}
	return fmt.Sprintf("%q", s)
}

// firstDiff is the first index at which a and b differ, a length
// difference included, or -1.
func firstDiff[T any](a, b []T, eq func(x, y T) bool) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || !eq(a[i], b[i]) {
			return i
		}
	}
	return -1
}

// pair shows index i of both sides, or that a side ends before it.
func pair[T any](a, b []T, i int, show func(T) any) string {
	side := func(s []T) any {
		if i < len(s) {
			return show(s[i])
		}
		return fmt.Sprintf("none of %d", len(s))
	}
	return fmt.Sprintf("%v; %v", side(a), side(b))
}
