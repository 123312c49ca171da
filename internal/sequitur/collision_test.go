package sequitur_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/sequitur"
)

// An index entry keeps a digram's 32-bit fingerprint and reads the
// digram itself from the symbol that owns the entry. The streams here
// hold two digrams that share a fingerprint, or only a home slot, in
// the grammar at once, so a probe that meets one while looking for the
// other has to tell them apart through the owner.

// pairDigram is the digram t1^e1 t2^e2.
type pairDigram struct {
	t1, t2 int32
	e1, e2 int64
}

func (d pairDigram) fp() uint32 { return sequitur.DigramFingerprint(d.t1, d.e1, d.t2, d.e2) }

// digramOf decodes a 20-bit digram number: two terminals below 8,
// FuzzAppendDifferential's alphabet, and two exponents up to 128.
func digramOf(i uint32) pairDigram {
	return pairDigram{t1: int32(i >> 17), t2: int32(i >> 14 & 7), e1: int64(i>>7&127) + 1, e2: int64(i&127) + 1}
}

// collisionPairs is a birthday search over the 917 504 digrams of two
// distinct terminals that digramOf numbers: every pair with equal
// fingerprints, and for tables of 8 to 64 slots four pairs whose
// fingerprints differ but give the same home slot.
var collisionPairs = sync.OnceValues(func() (same, home [][2]pairDigram) {
	keys := make([]uint64, 0, 1<<20)
	for i := uint32(0); i < 1<<20; i++ {
		if d := digramOf(i); d.t1 != d.t2 {
			keys = append(keys, uint64(d.fp())<<32|uint64(i))
		}
	}
	slices.Sort(keys)
	for j := 1; j < len(keys); j++ {
		if keys[j]>>32 == keys[j-1]>>32 {
			same = append(same, [2]pairDigram{digramOf(uint32(keys[j-1])), digramOf(uint32(keys[j]))})
		}
	}
	for slots := uint32(8); slots <= 64; slots *= 2 {
		first := map[uint32]pairDigram{}
		for i, found := uint32(0), 0; found < 4; i += 4099 { // a stride prime to 2²⁰ varies all four fields
			d := digramOf(i % (1 << 20))
			if d.t1 == d.t2 {
				continue
			}
			slot := d.fp() & (slots - 1)
			if o, ok := first[slot]; ok && o.fp() != d.fp() {
				home = append(home, [2]pairDigram{o, d})
				delete(first, slot)
				found++
				continue
			}
			first[slot] = d
		}
	}
	return same, home
})

// interleave is a stream holding both digrams of p: each, then a
// separator, for every ordered pair of separators the four terminals of
// p leave free, and at the end both again in the other order. A run
// longer than 16 is appended in runs of 16, which the fuzz encoding
// can spell.
func interleave(p [2]pairDigram) []run {
	var seps []int32
	for t := int32(0); t < 8; t++ {
		if t != p[0].t1 && t != p[0].t2 && t != p[1].t1 && t != p[1].t2 {
			seps = append(seps, t)
		}
	}
	var out []run
	put := func(t int32, e int64) {
		for ; e > 0; e -= 16 {
			out = append(out, run{t, min(e, 16)})
		}
	}
	digram := func(d pairDigram) {
		put(d.t1, d.e1)
		put(d.t2, d.e2)
	}
	for _, s1 := range seps {
		for _, s2 := range seps {
			if s1 != s2 {
				digram(p[0])
				put(s1, 1)
				digram(p[1])
				put(s2, 1)
			}
		}
	}
	digram(p[1])
	digram(p[0])
	return out
}

// fuzzBytes spells a stream of runs of at most 16 in
// FuzzAppendDifferential's encoding.
func fuzzBytes(stream []run) []byte {
	raw := make([]byte, len(stream))
	for i, r := range stream {
		raw[i] = byte(r.t)
		if r.k > 1 {
			raw[i] |= 0x80 | byte(r.k-1)<<3
		}
	}
	return raw
}

// collisionSeeds are FuzzAppendDifferential corpus entries: the
// streams of the first four equal-fingerprint pairs and of one
// home-slot pair per table size.
func collisionSeeds() [][]byte {
	same, home := collisionPairs()
	var seeds [][]byte
	for _, p := range same[:min(4, len(same))] {
		seeds = append(seeds, fuzzBytes(interleave(p)))
	}
	for i := 0; i < len(home); i += 4 {
		seeds = append(seeds, fuzzBytes(interleave(home[i])))
	}
	return seeds
}

// TestIndexFingerprintCollisions appends each pair's stream with
// CheckInvariants and a comparison against the pointer reference after
// every append.
func TestIndexFingerprintCollisions(t *testing.T) {
	same, home := collisionPairs()
	// 2²⁰ digrams over 2³² fingerprints make about 2⁷ colliding pairs.
	if len(same) < 32 {
		t.Fatalf("birthday search found %d equal-fingerprint pairs, want at least 32", len(same))
	}
	t.Logf("%d equal-fingerprint pairs, %d home-slot pairs", len(same), len(home))
	if testing.Short() {
		same = same[:8]
	}
	for _, p := range same {
		if p[0] == p[1] || p[0].fp() != p[1].fp() {
			t.Fatalf("%v is not a fingerprint collision", p)
		}
		differential(t, fmt.Sprintf("fingerprint %#x: %v", p[0].fp(), p), interleave(p), 1)
	}
	for i, p := range home {
		slots := uint32(8) << (i / 4)
		if p[0].fp()&(slots-1) != p[1].fp()&(slots-1) {
			t.Fatalf("%v do not share a home slot of %d", p, slots)
		}
		differential(t, fmt.Sprintf("home slot of %d: %v", slots, p), interleave(p), 1)
	}
}
