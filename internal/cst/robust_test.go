package cst

import (
	"encoding/binary"
	"math"
	"testing"
)

// Deserialize parses attacker-controllable bytes (it sits on the
// trace.Read path); any malformed input must error, never panic.

// TestDeserializeOverflowLength: a signature length of 2^63 wraps
// negative when narrowed to int, which used to slip past the bounds
// check and panic slicing the data.
func TestDeserializeOverflowLength(t *testing.T) {
	for _, l := range []uint64{1 << 63, 1<<64 - 1, 1 << 62} {
		var data []byte
		data = binary.AppendUvarint(data, 1) // one entry
		data = binary.AppendUvarint(data, l) // absurd signature length
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Deserialize panicked on length %d: %v", l, r)
			}
		}()
		if _, err := Deserialize(data); err == nil {
			t.Fatalf("length %d accepted", l)
		}
	}
}

func TestDeserializeExhaustiveCorruption(t *testing.T) {
	tb := New()
	tb.Add([]byte("sigA"), 100)
	tb.Add([]byte("sigB"), 200)
	tb.Add([]byte("sigC"), 300)
	data := tb.Serialize()
	check := func(mut []byte, what string) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Deserialize panicked on %s: %v", what, r)
			}
		}()
		Deserialize(mut)
	}
	for cut := 0; cut < len(data); cut++ {
		check(data[:cut], "truncation")
	}
	for pos := 0; pos < len(data); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << bit
			check(mut, "bit flip")
		}
	}
}

// FuzzDeserialize runs both stored forms of a table over the same
// bytes. What either accepts is internally consistent, and what the
// exact form accepts is a table the file form writes and reads back
// with the same signatures and call counts.
func FuzzDeserialize(f *testing.F) {
	tb := New()
	tb.Add([]byte("sigA"), 100)
	tb.Add([]byte("sigB"), 200)
	tb.Add([]byte("sigB"), 301)
	f.Add(tb.Serialize())
	f.Add(tb.SerializeExact())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := Deserialize(data); err == nil {
			for i := int32(0); int(i) < got.Len(); i++ {
				got.Sig(i)
				got.AvgDuration(i)
			}
			got.Serialize()
		}
		exact, err := DeserializeExact(data)
		if err != nil {
			return
		}
		back, err := Deserialize(exact.Serialize())
		if err != nil {
			t.Fatalf("a table the exact form accepts is refused in the file form: %v", err)
		}
		if back.Len() != exact.Len() {
			t.Fatalf("%d entries read back as %d", exact.Len(), back.Len())
		}
		for i := int32(0); int(i) < exact.Len(); i++ {
			if back.SigString(i) != exact.SigString(i) || back.Count(i) != exact.Count(i) {
				t.Fatalf("entry %d: %q × %d read back as %q × %d", i, exact.SigString(i), exact.Count(i), back.SigString(i), back.Count(i))
			}
		}
	})
}

// TestDeserializeRejectsBadCounts: an entry is called at least once,
// and its average times its count is an int64 duration sum.
func TestDeserializeRejectsBadCounts(t *testing.T) {
	entry := func(count, avg int64) []byte { // a table of one entry, "x"
		data := binary.AppendUvarint(nil, 1)
		data = append(binary.AppendUvarint(data, 1), 'x')
		return binary.AppendVarint(binary.AppendVarint(data, count), avg)
	}
	for _, c := range [][2]int64{{0, 5}, {-1, 5}, {2, math.MaxInt64/2 + 1}, {3, math.MinInt64/3 - 1}, {1 << 40, 1 << 30}} {
		if _, err := Deserialize(entry(c[0], c[1])); err == nil {
			t.Errorf("%d calls averaging %d accepted", c[0], c[1])
		}
	}
	for _, c := range [][2]int64{{1, math.MaxInt64}, {1, math.MinInt64}, {2, math.MaxInt64 / 2}, {3, math.MinInt64 / 3}, {7, -4}} {
		tb, err := Deserialize(entry(c[0], c[1]))
		if err != nil {
			t.Fatalf("%d calls averaging %d: %v", c[0], c[1], err)
		}
		if tb.Count(0) != c[0] || tb.AvgDuration(0) != c[1] {
			t.Errorf("%d calls averaging %d read back as %d averaging %d", c[0], c[1], tb.Count(0), tb.AvgDuration(0))
		}
	}
}

// hostile is a one-entry table: signature sig, count calls lasting dur
// ns in all, as a hostile snapshot's exact form may claim.
func hostile(sig string, count, dur int64) *Table {
	return &Table{bySig: map[string]int32{sig: 0}, sigs: []string{sig}, count: []int64{count}, durSum: []int64{dur}}
}

// TestAbsorbRefusesOverflow: a fold whose merged count or duration sum
// would pass an int64, either way, fails instead of wrapping.
func TestAbsorbRefusesOverflow(t *testing.T) {
	half := int64(math.MaxInt64/2 + 1)
	for name, c := range map[string]struct{ a, b *Table }{
		"count":             {hostile("s", half, 0), hostile("s", half, 0)},
		"duration":          {hostile("s", 1, math.MaxInt64), hostile("s", 1, 1)},
		"negative duration": {hostile("s", 1, math.MinInt64), hostile("s", 1, -1)},
	} {
		global := New()
		if _, err := global.Absorb(c.a); err != nil {
			t.Fatalf("%s: first table: %v", name, err)
		}
		if _, err := global.Absorb(c.b); err == nil {
			t.Errorf("%s: merged to %d calls lasting %d ns", name, global.count[0], global.durSum[0])
		}
	}
	global := New()
	for _, tb := range []*Table{hostile("s", half-1, math.MaxInt64-1), hostile("s", half, 1)} {
		if _, err := global.Absorb(tb); err != nil {
			t.Fatalf("a sum of exactly math.MaxInt64 refused: %v", err)
		}
	}
}

// TestSumsAdmit: Sums refuses the table that would take the calls, or
// the absolute durations, of the tables admitted so far past an int64,
// whichever signatures they are counted against, and is left as it
// was; the bound itself is admitted. Whatever order the admitted tables
// are then absorbed in, no sum wraps.
func TestSumsAdmit(t *testing.T) {
	half := int64(math.MaxInt64/2 + 1)
	var s Sums
	admitted := []*Table{hostile("a", half, math.MaxInt64/2), hostile("b", half/2, 0), hostile("a", half/2-1, -(math.MaxInt64/2 + 1))}
	for i, tb := range admitted {
		if err := s.Admit(tb); err != nil {
			t.Fatalf("table %d refused: %v", i, err)
		}
	}
	for name, tb := range map[string]*Table{
		"a call more":       hostile("c", 1, 0),
		"a nanosecond more": hostile("b", 1, 1),
		"min duration":      hostile("b", 1, math.MinInt64),
	} {
		if err := s.Admit(tb); err == nil {
			t.Errorf("%s admitted", name)
		}
		if s != (Sums{math.MaxInt64, math.MaxInt64}) {
			t.Errorf("%s: a refused table changed the sums to %+v", name, s)
		}
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}} {
		global := New()
		for _, i := range order {
			if _, err := global.Absorb(admitted[i]); err != nil {
				t.Fatalf("order %v: %v", order, err)
			}
		}
	}
}
