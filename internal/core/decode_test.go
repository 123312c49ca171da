package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/timing"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/workloads"
)

// traced runs a workload under the tracer and returns the serialized
// trace; every test reads a File of its own from it, so each starts
// with nothing resolved.
func traced(t testing.TB, name string, procs, iters int, opts pilgrim.Options) []byte {
	t.Helper()
	body, err := workloads.Get(name, iters, procs)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := pilgrim.Run(procs, opts, body)
	if err != nil {
		t.Fatal(err)
	}
	return tracetest.Bytes(t, f)
}

// referenceDecode is the per-call decoder DecodeRank used to be, kept
// here as the oracle: the rank's grammars are walked one terminal at a
// time, sig.Decode runs on every call, and the times come from a clock
// of its own: an aggregated trace's calls laid end to end from 0, each
// lasting its entry's mean duration, a lossy trace's recovered by
// timing.Reconstructor.Series. Nothing is shared between calls, ranks
// or invocations.
func referenceDecode(f *trace.File, rank int) ([]core.DecodedCall, error) {
	expand := func(g sequitur.Serialized) []int32 {
		var seq []int32
		g.Walk(func(t int32, k int64) bool {
			for ; k > 0; k-- {
				seq = append(seq, t)
			}
			return true
		})
		return seq
	}
	terms := expand(f.Grammars[f.RankMap[rank]])
	calls := make([]core.DecodedCall, 0, len(terms))
	var clock int64
	for i, term := range terms {
		d, err := sig.Decode(f.CST.Sig(term))
		if err != nil {
			return nil, fmt.Errorf("reference: rank %d call %d: %w", rank, i, err)
		}
		c := core.NewCall(d, f.CST.AvgDuration(term))
		c.Term = term
		c.TStart, c.TEnd = clock, clock+c.AvgDuration
		clock = c.TEnd
		calls = append(calls, c)
	}
	if f.TimingMode == trace.TimingLossy {
		times, err := timing.NewReconstructor(f.TimingBase).Series(terms,
			expand(f.DurGrammars[f.DurIndex[rank]]), expand(f.IntGrammars[f.IntIndex[rank]]))
		if err != nil {
			return nil, err
		}
		for i := range calls {
			calls[i].TStart, calls[i].TEnd = times[i].Start, times[i].End
		}
	}
	return calls, nil
}

// differs names the first call of got that is not want's: its times,
// or its decoded entry; "" if none is.
func differs(got, want []core.DecodedCall) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d calls, want %d", len(got), len(want))
	}
	for i, c := range got {
		switch w := want[i]; {
		case c.TStart != w.TStart || c.TEnd != w.TEnd:
			return fmt.Sprintf("call %d at [%d, %d], want [%d, %d]", i, c.TStart, c.TEnd, w.TStart, w.TEnd)
		case !reflect.DeepEqual(c, w):
			return fmt.Sprintf("call %d is %s avg %d, want %s avg %d", i, c.Decoded, c.AvgDuration, w.Decoded, w.AvgDuration)
		}
	}
	return ""
}

// TestDecodeRankMatchesPerCallReference: functions, args, AvgDuration
// and TStart/TEnd of every call of every rank, in both timing modes,
// on a first and a second DecodeRank of the same File, and from 8
// goroutines racing on a File nobody has read yet (run under -race),
// which must all get the same entry for each call. stencil2d's CST is
// stored raw, so its entries decode whole; cellular's and cg's by
// template, so the goroutines race on first references of templates
// and of entries.
func TestDecodeRankMatchesPerCallReference(t *testing.T) {
	for _, w := range []struct {
		name  string
		procs int
		iters int
		form  string
	}{
		{"stencil2d", 16, 40, "raw"},
		{"cellular", 8, 30, "templated"},
		{"cg", 16, 5, "templated"},
	} {
		for _, mode := range []struct {
			name string
			mode uint8
		}{{"aggregated", pilgrim.TimingAggregated}, {"lossy", pilgrim.TimingLossy}} {
			t.Run(w.name+"/"+mode.name, func(t *testing.T) {
				matchesReference(t, traced(t, w.name, w.procs, w.iters, pilgrim.Options{TimingMode: mode.mode}), w.form)
			})
		}
	}
}

// matchesReference is TestDecodeRankMatchesPerCallReference on one
// trace, whose CST must be stored in form.
func matchesReference(t *testing.T, data []byte, form string) {
	ref := tracetest.Read(t, data)
	if st := ref.CSTStorage(); st.Form != form {
		t.Fatalf("CST stored %s, want %s", st.Form, form)
	}
	want := make([][]core.DecodedCall, ref.NumRanks)
	timed := false
	for r := range want {
		var err error
		if want[r], err = referenceDecode(ref, r); err != nil {
			t.Fatal(err)
		}
		if len(want[r]) == 0 {
			t.Fatalf("rank %d traced no calls", r)
		}
		timed = timed || want[r][len(want[r])-1].TEnd > 0
	}
	if !timed {
		t.Fatal("no rank's timeline ends past 0")
	}

	f := tracetest.Read(t, data)
	for pass := 1; pass <= 2; pass++ {
		for r := range want {
			got, err := core.DecodeRank(f, r)
			if err != nil {
				t.Fatalf("pass %d rank %d: %v", pass, r, err)
			}
			if d := differs(got, want[r]); d != "" {
				t.Fatalf("pass %d rank %d differs from the per-call reference: %s", pass, r, d)
			}
		}
	}

	f = tracetest.Read(t, data)
	var wg sync.WaitGroup
	raced := make([][][]core.DecodedCall, 8) // per goroutine, per rank
	for g := range raced {
		raced[g] = make([][]core.DecodedCall, len(want))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range want {
				r := (i + g) % len(want) // every goroutine starts on another rank
				got, err := core.DecodeRank(f, r)
				if err != nil {
					t.Errorf("goroutine %d rank %d: %v", g, r, err)
					return
				}
				if d := differs(got, want[r]); d != "" {
					t.Errorf("goroutine %d rank %d differs from the per-call reference: %s", g, r, d)
					return
				}
				raced[g][r] = got
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := 1; g < len(raced); g++ {
		for r := range want {
			for i, c := range raced[g][r] {
				if c.Entry != raced[0][r][i].Entry {
					t.Fatalf("goroutines 0 and %d hold separate entries for rank %d call %d", g, r, i)
				}
			}
		}
	}
}

// TestDecodedArgsShared: every call naming one CST entry, on every
// rank, holds the file's one decoded Entry of it, which carries the
// entry's mean duration; on a CST stored raw (stencil2d) and one stored
// by template (cg).
func TestDecodedArgsShared(t *testing.T) {
	for _, w := range []struct {
		name         string
		procs, iters int
		form         string
	}{
		{"stencil2d", 4, 20, "raw"},
		{"cg", 16, 5, "templated"},
	} {
		f := tracetest.Read(t, traced(t, w.name, w.procs, w.iters, pilgrim.Options{}))
		if st := f.CSTStorage(); st.Form != w.form {
			t.Fatalf("%s: CST stored %s, want %s", w.name, st.Form, w.form)
		}
		held := map[int32]*trace.Entry{}
		shared := 0
		for r := 0; r < f.NumRanks; r++ {
			terms, err := f.Terms(r)
			if err != nil {
				t.Fatal(err)
			}
			calls, err := core.DecodeRank(f, r)
			if err != nil {
				t.Fatal(err)
			}
			for i, term := range terms {
				c := calls[i]
				if avg := f.CST.AvgDuration(term); c.AvgDuration != avg {
					t.Fatalf("%s: rank %d call %d (CST entry %d) averages %d, the CST %d", w.name, r, i, term, c.AvgDuration, avg)
				}
				e, ok := held[term]
				if !ok {
					held[term] = c.Entry
					continue
				}
				if c.Entry != e {
					t.Fatalf("%s: rank %d call %d holds another entry than an earlier call of CST entry %d", w.name, r, i, term)
				}
				shared++
			}
		}
		if shared == 0 {
			t.Fatalf("%s: no signature repeats", w.name)
		}
	}
}

// TestCSTJoinsWhileDecoding: a CST read by template joins its
// signatures on first use. Goroutines making the first Sig, SigString,
// Lookup and Bytes calls on one read File, while others decode its
// ranks (run under -race), all see the table its file form reads to,
// and the decoders the calls of a File nobody else touched.
func TestCSTJoinsWhileDecoding(t *testing.T) {
	data := traced(t, "cg", 16, 5, pilgrim.Options{})
	ref := tracetest.Read(t, data)
	if st := ref.CSTStorage(); st.Form != "templated" {
		t.Fatalf("CST stored %s, want templated", st.Form)
	}
	table, err := cst.Deserialize(ref.CST.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]core.DecodedCall, ref.NumRanks)
	for r := range want {
		if want[r], err = core.DecodeRank(ref, r); err != nil {
			t.Fatal(err)
		}
	}
	f := tracetest.Read(t, data)
	uses := []func(term int32) error{
		func(term int32) error {
			if got, want := string(f.CST.Sig(term)), table.SigString(term); got != want {
				return fmt.Errorf("Sig(%d) is %q, want %q", term, got, want)
			}
			return nil
		},
		func(term int32) error {
			if got, want := f.CST.SigString(term), table.SigString(term); got != want {
				return fmt.Errorf("SigString(%d) is %q, want %q", term, got, want)
			}
			return nil
		},
		func(term int32) error {
			if got, ok := f.CST.Lookup(table.Sig(term)); !ok || got != term {
				return fmt.Errorf("Lookup of entry %d's signature is %d, %v", term, got, ok)
			}
			return nil
		},
		func(int32) error {
			if got, want := f.CST.Bytes(), table.Bytes(); got != want {
				return fmt.Errorf("Bytes is %d, want %d", got, want)
			}
			return nil
		},
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				use := uses[g/2]
				for term := range int32(table.Len()) {
					if err := use(term); err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
				}
				return
			}
			for i := range want {
				r := (i + g) % len(want)
				got, err := core.DecodeRank(f, r)
				if err != nil {
					t.Errorf("goroutine %d rank %d: %v", g, r, err)
					return
				}
				if d := differs(got, want[r]); d != "" {
					t.Errorf("goroutine %d rank %d: %s", g, r, d)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func gram(seq ...int32) sequitur.Serialized {
	g := sequitur.New()
	for _, v := range seq {
		g.Append(v)
	}
	return g.Serialize()
}

// sameEveryTime decodes each rank three times and requires the error
// text of the first call each time; it returns the ranks that failed.
func sameEveryTime(t *testing.T, name string, f *trace.File) map[int]error {
	t.Helper()
	failed := map[int]error{}
	for r := 0; r < f.NumRanks; r++ {
		_, first := core.DecodeRank(f, r)
		if first != nil {
			failed[r] = first
		}
		for again := 0; again < 2; again++ {
			if _, err := core.DecodeRank(f, r); fmt.Sprint(err) != fmt.Sprint(first) {
				t.Errorf("%s: rank %d said %v, then %v", name, r, first, err)
			}
		}
	}
	return failed
}

// TestDecodeErrorsAreStable: a damaged file fails the same way on the
// first and on repeated calls and from every rank the damage reaches,
// and does not reach the ranks that never reference it.
func TestDecodeErrorsAreStable(t *testing.T) {
	data := traced(t, "cg", 8, 5, pilgrim.Options{})
	clean := tracetest.Read(t, data)
	idx, err := clean.GrammarIndex()
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Grammars) < 2 {
		t.Fatalf("cg on 8 ranks deduped to %d grammars; the test needs two", len(clean.Grammars))
	}

	// Rank map damage fails every rank with one message.
	missing := make([]int32, clean.NumRanks)
	missing[3] = int32(len(clean.Grammars))
	for name, rankMap := range map[string][]int32{
		"missing grammar":   missing,
		"short rank map":    idx[:len(idx)-1],
		"overlong rank map": append(append([]int32(nil), idx...), 0),
	} {
		f := tracetest.Read(t, data)
		f.RankMap = rankMap
		failed := sameEveryTime(t, name, f)
		if len(failed) != f.NumRanks {
			t.Errorf("%s: %d of %d ranks failed", name, len(failed), f.NumRanks)
		}
		for r, err := range failed {
			if err.Error() != failed[0].Error() {
				t.Errorf("%s: rank %d: %v, rank 0: %v", name, r, err, failed[0])
			}
		}
	}

	// A terminal past the CST in one grammar fails exactly the ranks
	// mapped to it.
	f := tracetest.Read(t, data)
	bad := idx[1]
	f.Grammars[bad] = gram(0, int32(f.CST.Len())+5, 0)
	failed := sameEveryTime(t, "terminal out of range", f)
	for r := 0; r < f.NumRanks; r++ {
		if _, isBad := failed[r]; isBad != (idx[r] == bad) {
			t.Errorf("terminal out of range: rank %d (grammar %d) failed=%v", r, idx[r], isBad)
		}
	}

	// A truncated signature fails exactly the ranks whose stream holds
	// it, with the one decode error the file kept for that entry.
	users := map[int32][]int{}
	for r := 0; r < clean.NumRanks; r++ {
		terms, err := clean.Terms(r)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int32]bool{}
		for _, term := range terms {
			if !seen[term] {
				seen[term] = true
				users[term] = append(users[term], r)
			}
		}
	}
	victim := int32(-1)
	for term := int32(0); int(term) < clean.CST.Len(); term++ {
		if n := len(users[term]); n >= 2 && n < clean.NumRanks && len(clean.CST.Sig(term)) > 2 {
			victim = term
			break
		}
	}
	if victim < 0 {
		t.Fatal("no CST entry used by some but not all ranks")
	}
	f = tracetest.Read(t, data)
	table := cst.New()
	for term := int32(0); int(term) < f.CST.Len(); term++ {
		s := f.CST.Sig(term)
		if term == victim {
			s = s[:len(s)-1]
		}
		if got := table.Add(s, 1); got != term {
			t.Fatalf("rebuilt CST numbers entry %d as %d", term, got)
		}
	}
	f.CST = table
	failed = sameEveryTime(t, "truncated signature", f)
	if len(failed) != len(users[victim]) {
		t.Errorf("truncated signature: ranks %v reference it, %d ranks failed", users[victim], len(failed))
	}
	var cause error
	for _, r := range users[victim] {
		err := failed[r]
		if err == nil {
			t.Errorf("truncated signature: rank %d references entry %d and decoded", r, victim)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("rank %d call", r)) {
			t.Errorf("truncated signature: rank %d error does not name the call: %v", r, err)
		}
		if cause == nil {
			cause = errors.Unwrap(err)
		} else if errors.Unwrap(err) != cause {
			t.Errorf("truncated signature: rank %d failed with another error value: %v", r, err)
		}
	}
}

// TestDecodeRankWarmAllocs: once a file's signatures are decoded, a
// rank costs its expansion's scratch and its output slice — two
// allocations, whatever the number of calls, and at most a 24-byte call
// for each call, plus a constant. A decoded value is at most 48 bytes.
func TestDecodeRankWarmAllocs(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(core.DecodedCall{}) != 24 {
		t.Fatalf("a decoded call is %d bytes, want 24", unsafe.Sizeof(core.DecodedCall{}))
	}
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(sig.DecodedValue{}) > 48 {
		t.Fatalf("a decoded value is %d bytes, want at most 48", unsafe.Sizeof(sig.DecodedValue{}))
	}
	warm := func(iters int) (allocs, allocBytes float64, calls int) {
		f := tracetest.Read(t, traced(t, "stencil2d", 16, iters, pilgrim.Options{}))
		for r := 0; r < f.NumRanks; r++ {
			if _, err := core.DecodeRank(f, r); err != nil {
				t.Fatal(err)
			}
		}
		decode := func() {
			out, err := core.DecodeRank(f, 5)
			if err != nil {
				t.Fatal(err)
			}
			calls = len(out)
		}
		allocs = testing.AllocsPerRun(20, decode)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decode()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs, calls
	}
	small, smallBytes, nSmall := warm(20)
	large, largeBytes, nLarge := warm(400)
	t.Logf("warm DecodeRank: %d calls %.0f B, %d calls %.0f B", nSmall, smallBytes, nLarge, largeBytes)
	// The constant covers the expansion's scratch and the allocator
	// rounding both slices up: to its size class, or past 32 KiB to a
	// whole 8 KiB page.
	const perCall, constant = 24, 16 << 10
	for _, m := range []struct {
		bytes float64
		calls int
	}{{smallBytes, nSmall}, {largeBytes, nLarge}} {
		if limit := float64(perCall*m.calls + constant); m.bytes > limit {
			t.Errorf("warm DecodeRank allocates %.0f B for %d calls (%.1f B a call), want at most %.0f",
				m.bytes, m.calls, m.bytes/float64(m.calls), limit)
		}
	}
	if nLarge < 10*nSmall {
		t.Fatalf("400 iterations decode to %d calls, 20 to %d", nLarge, nSmall)
	}
	const budget = 2 // the expansion's scratch and its output
	if small > budget || large > budget {
		t.Fatalf("warm DecodeRank allocates %v times for %d calls and %v for %d, want at most %d",
			small, nSmall, large, nLarge, budget)
	}
	if large != small {
		t.Fatalf("warm DecodeRank allocations grow with the stream: %v for %d calls, %v for %d",
			small, nSmall, large, nLarge)
	}
}
