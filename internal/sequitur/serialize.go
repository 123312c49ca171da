package sequitur

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Serialized grammar layout (all int32, matching the paper's "array of
// integers" internal representation whose identity check is a memcmp):
//
//	[0]              number of rules R (start rule is rule 0)
//	then, per rule:  bodyLen N, then N symbol triples
//	symbol triple:   value, expLo, expHi
//
// value >= 0 is a terminal id; value < 0 is a rule reference encoding
// rule index i as -(i+1). The exponent is a 64-bit count split into two
// int32 halves (low 31 bits in expLo, rest in expHi) so the whole
// grammar remains a flat []int32 comparable with slices.Equal.

const expBase = 1 << 31

func encExp(e int64) (lo, hi int32) {
	return int32(e % expBase), int32(e / expBase)
}

func decExp(lo, hi int32) int64 {
	return int64(hi)*expBase + int64(lo)
}

// Serialize flattens the grammar into an []int32. Two grammars built
// from the same sequence of operations serialize identically, so the
// inter-process identity check is a plain slice comparison.
func (g *Grammar) Serialize() []int32 {
	g.flush()
	rules := g.rulesInOrder()
	index := make([]int32, len(g.rules))
	for i, r := range rules {
		index[r] = int32(i)
	}
	out := make([]int32, 0, 1+len(rules)*4)
	out = append(out, int32(len(rules)))
	for _, r := range rules {
		out = append(out, int32(g.bodyLen(r)))
		for s := g.first(r); !g.isGuard(s); s = g.syms[s].next {
			v := g.syms[s].key
			if v < 0 {
				v = -(index[-v] + 1)
			}
			lo, hi := encExp(g.syms[s].exp)
			out = append(out, v, lo, hi)
		}
	}
	return out
}

// Serialized is a flattened grammar, the unit of inter-process
// compression: identical ranks compare equal bytewise.
type Serialized []int32

// Validate checks structural sanity of a serialized grammar.
func (sg Serialized) Validate() error {
	if len(sg) == 0 {
		return fmt.Errorf("sequitur: empty serialized grammar")
	}
	nRules := int(sg[0])
	if nRules < 1 {
		return fmt.Errorf("sequitur: %d rules", nRules)
	}
	if nRules >= len(sg) { // every rule takes at least its length
		return fmt.Errorf("sequitur: %d rules in %d ints", nRules, len(sg))
	}
	at := make([]int, nRules) // where each rule starts
	p := 1
	for r := 0; r < nRules; r++ {
		if p >= len(sg) {
			return fmt.Errorf("sequitur: truncated at rule %d", r)
		}
		at[r] = p
		n := int(sg[p])
		p++
		if n < 0 {
			return fmt.Errorf("sequitur: rule %d negative body length", r)
		}
		for i := 0; i < n; i++ {
			if p+3 > len(sg) {
				return fmt.Errorf("sequitur: truncated symbol in rule %d", r)
			}
			v := sg[p]
			if v < 0 {
				ref := int(-v - 1)
				if ref >= nRules {
					return fmt.Errorf("sequitur: rule %d references rule %d of %d", r, ref, nRules)
				}
			}
			if decExp(sg[p+1], sg[p+2]) < 1 {
				return fmt.Errorf("sequitur: rule %d symbol %d exponent < 1", r, i)
			}
			p += 3
		}
	}
	if p != len(sg) {
		return fmt.Errorf("sequitur: %d trailing ints", len(sg)-p)
	}
	// A valid grammar is acyclic (a cyclic one would make Walk/Expand
	// recurse forever — untrusted inputs must be rejected here).
	state := make([]uint8, nRules) // 0 unvisited, 1 in-stack, 2 done
	var visit func(r int) error
	visit = func(r int) error {
		switch state[r] {
		case 1:
			return fmt.Errorf("sequitur: grammar is cyclic at rule %d", r)
		case 2:
			return nil
		}
		state[r] = 1
		for p, end := at[r]+1, at[r]+1+3*int(sg[at[r]]); p < end; p += 3 {
			if v := sg[p]; v < 0 {
				if err := visit(int(-v - 1)); err != nil {
					return err
				}
			}
		}
		state[r] = 2
		return nil
	}
	return visit(0)
}

// Bytes returns the serialized size in bytes.
func (sg Serialized) Bytes() int { return len(sg) * 4 }

// Relabel rewrites every terminal t as mapping[t], where mapping is
// the dense relabel slice the inter-process CST merge produced
// (terminals are contiguous, so index = old terminal). Terminals past
// the end of the mapping are an error. Relabelling changes no
// structure, so the result is one copy of sg with the value slot of
// each terminal triple rewritten. sg must have passed Validate.
func (sg Serialized) Relabel(mapping []int32) (Serialized, error) {
	out := slices.Clone(sg)
	p := 1
	for r := int32(0); r < out[0]; r++ {
		end := p + 1 + 3*int(out[p])
		for p++; p < end; p += 3 {
			if v := out[p]; v >= 0 {
				if int(v) >= len(mapping) {
					return nil, fmt.Errorf("sequitur: relabel: no mapping for terminal %d", v)
				}
				out[p] = mapping[v]
			}
		}
	}
	return out, nil
}

// Shape renames sg's terminals 0, 1, 2… by first occurrence in
// serialization order. It returns the renamed grammar and vec, the
// terminals it renamed in that order, so shape.Relabel(vec) is sg
// again: grammars that differ only in which terminals they name share
// a shape. sg must have passed Validate.
func (sg Serialized) Shape() (shape Serialized, vec []int32) {
	const scan = 16 // terminals a linear search of vec beats a map for
	shape, vec = slices.Clone(sg), make([]int32, 0, scan)
	var index map[int32]int32 // once vec outgrows the scan
	p := 1
	for r := int32(0); r < shape[0]; r++ {
		end := p + 1 + 3*int(shape[p])
		for p++; p < end; p += 3 {
			v := shape[p]
			if v < 0 {
				continue
			}
			k, ok := int32(0), false
			if index != nil {
				k, ok = index[v]
			} else if i := slices.Index(vec, v); i >= 0 {
				k, ok = int32(i), true
			}
			if !ok {
				k = int32(len(vec))
				vec = append(vec, v)
				if index != nil {
					index[v] = k
				} else if len(vec) > scan {
					index = make(map[int32]int32, 2*len(vec))
					for i, t := range vec {
						index[t] = int32(i)
					}
				}
			}
			shape[p] = k
		}
	}
	return shape, vec
}

// MaxTerminal returns the largest terminal id the grammar names, or -1
// if it names none. sg must have passed Validate.
func (sg Serialized) MaxTerminal() int32 {
	m := int32(-1)
	p := 1
	for r := int32(0); r < sg[0]; r++ {
		end := p + 1 + 3*int(sg[p])
		for p++; p < end; p += 3 {
			m = max(m, sg[p])
		}
	}
	return m
}

// index is a serialized grammar indexed in place for walking and
// expanding it, in one []int64 of three per rule: off[r], where rule
// r's body-length slot is in sg; size[r], the length rule r expands to
// (saturating at MaxInt64; -1 until sizeOf computes it, and for a rule
// the start rule does not reach); and first[r], where in an expansion
// rule r was first expanded (-1: not yet). Walk, InputLen, Rules and
// every expansion read bodies through it instead of decoding every
// rule into a slice of its own. sg must have passed Validate.
type index struct {
	sg               Serialized
	off, size, first []int64
}

// newIndex indexes sg's rules; sizes are left to sizeOf.
func newIndex(sg Serialized) index {
	n := int(sg[0])
	s := make([]int64, 3*n)
	x := index{sg: sg, off: s[:n:n], size: s[n : 2*n : 2*n], first: s[2*n:]}
	p := int64(1)
	for r := range n {
		x.off[r], x.size[r], x.first[r] = p, -1, -1
		p += 1 + 3*int64(sg[p])
	}
	return x
}

// body is rule r's symbol triples.
func (x *index) body(r int) []int32 {
	at := x.off[r] + 1
	return x.sg[at : at+3*int64(x.sg[at-1])]
}

// sizeOf computes the length of rule r and of every rule it reaches,
// bottom-up, and returns rule r's.
func (x *index) sizeOf(r int) int64 {
	if x.size[r] >= 0 {
		return x.size[r]
	}
	x.size[r] = 0 // break cycles defensively; valid grammars are acyclic
	var n int64
	body := x.body(r)
	for j := 0; j < len(body); j += 3 {
		v, k := body[j], decExp(body[j+1], body[j+2])
		if v < 0 {
			k = satMul(k, x.sizeOf(int(-v-1)))
		}
		n = satAdd(n, k)
	}
	x.size[r] = n
	return n
}

// walk yields rule r's terminal runs, times times over, until yield
// returns false, and reports whether it did not.
func (x *index) walk(r int, times int64, yield func(t int32, k int64) bool) bool {
	body := x.body(r)
	for i := int64(0); i < times; i++ {
		for j := 0; j < len(body); j += 3 {
			v, k := body[j], decExp(body[j+1], body[j+2])
			if v < 0 {
				if !x.walk(int(-v-1), k, yield) {
					return false
				}
			} else if !yield(v, k) {
				return false
			}
		}
	}
	return true
}

// Walk streams the uncompressed terminal sequence of a serialized
// grammar without rebuilding the linked structure.
func (sg Serialized) Walk(yield func(t int32, k int64) bool) {
	x := newIndex(sg)
	x.walk(0, 1, yield)
}

// InputLen returns the uncompressed length generated by a serialized
// grammar (computed bottom-up, so exponential expansions stay cheap).
// Arithmetic saturates at MaxInt64: a corrupt grammar can encode
// expansions past int64, and a wrapped-negative length would slip
// under every size cap downstream.
func (sg Serialized) InputLen() int64 {
	x := newIndex(sg)
	return x.sizeOf(0)
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// Expand materializes the uncompressed sequence (panics above max
// elements; max <= 0 disables the cap).
func (sg Serialized) Expand(max int64) []int32 {
	out, n := sg.ExpandCapped(max)
	if max > 0 && n > max {
		panic(fmt.Sprintf("sequitur: expansion of %d terminals exceeds cap %d", n, max))
	}
	return out
}

// ExpandCapped is Expand for untrusted grammars: it returns the
// uncompressed length n, and a nil sequence instead of a panic when n
// exceeds max (max <= 0 disables the cap). It is ExpandEach of each
// terminal itself.
func (sg Serialized) ExpandCapped(max int64) (seq []int32, n int64) {
	seq, n, _ = ExpandEach(sg, max, func(_ int64, t int32) (int32, error) { return t, nil })
	return seq, n
}

// ExpandEach is the one expander of a serialized grammar: it returns
// sg's uncompressed sequence with each terminal t resolved to
// leaf(at, t), where at is its position, and the sequence's length n.
// When n exceeds max (max <= 0 disables the cap) it returns a nil
// sequence instead, and on leaf's first error that error.
//
// The grammar is indexed once, and the output allocated at its final
// length and filled in bulk. leaf is called once per terminal of a rule
// body, on the rule's first expansion, in increasing position, so the
// first failing position is the first failing terminal's first
// occurrence: a terminal run is one fill of what leaf gave, and a
// rule's later expansions, by reference or by exponent, are copies of
// its first.
func ExpandEach[T any](sg Serialized, max int64, leaf func(at int64, t int32) (T, error)) ([]T, int64, error) {
	x := newIndex(sg)
	n := x.sizeOf(0)
	if max > 0 && n > max {
		return nil, n, nil
	}
	// out is returned from a variable of its own, not from e: returning
	// e.out would let leaf, a closure, escape with e.
	out := make([]T, n)
	_, flat := any(out).([]int32)
	e := expander[T]{index: x, out: out, leaf: leaf, flat: flat}
	if err := e.fill(0, 0); err != nil {
		return nil, n, err
	}
	return out, n, nil
}

// expander is one ExpandEach.
type expander[T any] struct {
	index
	out  []T
	leaf func(at int64, t int32) (T, error)
	flat bool // T is int32
}

// dup copies src to dst. A T that may hold pointers is copied element
// by element: that takes the compiler's write barrier per pointer,
// where copy's bulk barrier walks the type of every element while the
// GC marks. On a 2-core x86-64 VM, BenchmarkDecodeRank/stencil16x2000
// read 6 % above the per-call gather this expansion replaced with copy
// (median of 10 alternating pairs), and 5 % below, then level, element
// by element. int32s, which hold none, copy faster by copy.
func (e *expander[T]) dup(dst, src []T) int {
	if e.flat {
		return copy(dst, src)
	}
	n := min(len(dst), len(src))
	for i := range n {
		dst[i] = src[i]
	}
	return n
}

// fill expands rule r into out from pos, the rule's first expansion.
func (e *expander[T]) fill(r int, pos int64) error {
	body := e.body(r)
	for j := 0; j < len(body); j += 3 {
		v, k := body[j], decExp(body[j+1], body[j+2])
		if v >= 0 {
			t, err := e.leaf(pos, v)
			if err != nil {
				return err
			}
			run := e.out[pos : pos+k]
			for i := range run {
				run[i] = t
			}
			pos += k
			continue
		}
		ref := int(-v - 1)
		one, all := e.size[ref], e.size[ref]*k
		if at := e.first[ref]; at >= 0 {
			e.dup(e.out[pos:pos+one], e.out[at:])
		} else {
			if err := e.fill(ref, pos); err != nil {
				return err
			}
			e.first[ref] = pos
		}
		for done := one; done < all; {
			done += int64(e.dup(e.out[pos+done:pos+all], e.out[pos:pos+done]))
		}
		pos += all
	}
	return nil
}

// Sym is a decoded serialized grammar symbol: Val is a terminal id
// when >= 0, otherwise a rule reference encoding rule index i as
// -(i+1); Exp is the repetition count.
type Sym struct {
	Val int32
	Exp int64
}

// Rules decodes the serialized grammar into per-rule symbol slices
// (rule 0 is the start rule). Used by consumers that mirror the
// grammar's structure, e.g. the mini-app source generator.
func (sg Serialized) Rules() [][]Sym {
	x := newIndex(sg)
	out := make([][]Sym, len(x.off))
	for r := range out {
		body := x.body(r)
		out[r] = make([]Sym, len(body)/3)
		for i := range out[r] {
			out[r][i] = Sym{Val: body[3*i], Exp: decExp(body[3*i+1], body[3*i+2])}
		}
	}
	return out
}

// A grammar is stored, in a trace file and in a snapshot on the wire,
// as AppendInts writes it; a trace stores its indices and CST columns
// so too.

// AppendInts appends vs to b: their count, then each as a zigzag
// varint.
func AppendInts[T int32 | int64](b []byte, vs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// IntsLen is len(AppendInts(nil, vs)).
func IntsLen(vs []int32) int {
	n := uvarintLen(uint64(len(vs)))
	for _, v := range vs {
		n += uvarintLen(uint64(v)<<1 ^ uint64(v>>31)) // binary.AppendVarint's zigzag
	}
	return n
}

// uvarintLen is len(binary.AppendUvarint(nil, u)).
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// ReadInts reads what AppendInts writes at the head of b, and returns
// the ints and the bytes they took. It refuses a count past what b can
// hold, a truncated varint, and an int outside T.
func ReadInts[T int32 | int64](b []byte) ([]T, int, error) {
	n, at := binary.Uvarint(b)
	if at <= 0 {
		return nil, 0, fmt.Errorf("sequitur: bad int count")
	}
	if n > uint64(len(b)-at) { // every int takes at least one byte
		return nil, 0, fmt.Errorf("sequitur: %d ints claimed in %d bytes", n, len(b)-at)
	}
	var vs []T // no ints: nil
	if n > 0 {
		vs = make([]T, n)
	}
	for i := range vs {
		if at < len(b) && b[at] < 0x80 { // one byte: most ints of a grammar
			vs[i], at = T(b[at]>>1)^-T(b[at]&1), at+1
			continue
		}
		v, k := binary.Varint(b[at:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("sequitur: bad int %d of %d", i, n)
		}
		if vs[i] = T(v); int64(vs[i]) != v {
			return nil, 0, fmt.Errorf("sequitur: int %d of %d is %d, past %T", i, n, v, vs[i])
		}
		at += k
	}
	return vs, at, nil
}
