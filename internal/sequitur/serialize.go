package sequitur

import (
	"fmt"
	"math"
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
	p := 1
	for r := 0; r < nRules; r++ {
		if p >= len(sg) {
			return fmt.Errorf("sequitur: truncated at rule %d", r)
		}
		n := int(sg[p])
		p++
		if n < 0 {
			return fmt.Errorf("sequitur: rule %d negative body length", r)
		}
		for i := 0; i < n; i++ {
			if p+2 >= len(sg)+1 && p+2 > len(sg) {
				return fmt.Errorf("sequitur: truncated symbol in rule %d", r)
			}
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
	rules := sg.rules()
	state := make([]uint8, len(rules)) // 0 unvisited, 1 in-stack, 2 done
	var visit func(r int) error
	visit = func(r int) error {
		switch state[r] {
		case 1:
			return fmt.Errorf("sequitur: grammar is cyclic at rule %d", r)
		case 2:
			return nil
		}
		state[r] = 1
		for _, s := range rules[r] {
			if s.val < 0 {
				if err := visit(int(-s.val - 1)); err != nil {
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

// sym is a decoded serialized symbol.
type sym struct {
	val int32 // terminal >= 0, or rule ref encoded negative
	exp int64
}

// rules decodes the serialized form into per-rule symbol slices.
func (sg Serialized) rules() [][]sym {
	nRules := int(sg[0])
	out := make([][]sym, nRules)
	p := 1
	for r := 0; r < nRules; r++ {
		n := int(sg[p])
		p++
		body := make([]sym, n)
		for i := 0; i < n; i++ {
			body[i] = sym{val: sg[p], exp: decExp(sg[p+1], sg[p+2])}
			p += 3
		}
		out[r] = body
	}
	return out
}

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

// ruleOffsets indexes the serialized form in place: rule r's symbol
// triples are sg[off[r]+1 : off[r+1]] (off[r] is its body-length slot).
// Walk, InputLen and Expand read bodies through it instead of decoding
// every rule into a slice of its own. sg must have passed Validate.
func (sg Serialized) ruleOffsets() []int32 {
	nRules := int(sg[0])
	off := make([]int32, nRules+1)
	p := 1
	for r := 0; r < nRules; r++ {
		off[r] = int32(p)
		p += 1 + 3*int(sg[p])
	}
	off[nRules] = int32(p)
	return off
}

// Walk streams the uncompressed terminal sequence of a serialized
// grammar without rebuilding the linked structure.
func (sg Serialized) Walk(yield func(t int32, k int64) bool) {
	off := sg.ruleOffsets()
	var walk func(r int, times int64) bool
	walk = func(r int, times int64) bool {
		body := sg[off[r]+1 : off[r+1]]
		for i := int64(0); i < times; i++ {
			for j := 0; j < len(body); j += 3 {
				v, k := body[j], decExp(body[j+1], body[j+2])
				if v < 0 {
					if !walk(int(-v-1), k) {
						return false
					}
				} else if !yield(v, k) {
					return false
				}
			}
		}
		return true
	}
	walk(0, 1)
}

// InputLen returns the uncompressed length generated by a serialized
// grammar (computed bottom-up, so exponential expansions stay cheap).
// Arithmetic saturates at MaxInt64: a corrupt grammar can encode
// expansions past int64, and a wrapped-negative length would slip
// under every size cap downstream.
func (sg Serialized) InputLen() int64 {
	return sg.ruleSizes(sg.ruleOffsets())[0]
}

// ruleSizes returns the expanded length of the start rule and of every
// rule reachable from it (-1 for the others), saturating at MaxInt64.
func (sg Serialized) ruleSizes(off []int32) []int64 {
	memo := make([]int64, len(off)-1)
	for i := range memo {
		memo[i] = -1
	}
	var size func(r int) int64
	size = func(r int) int64 {
		if memo[r] >= 0 {
			return memo[r]
		}
		memo[r] = 0 // break cycles defensively; valid grammars are acyclic
		var n int64
		body := sg[off[r]+1 : off[r+1]]
		for j := 0; j < len(body); j += 3 {
			v, k := body[j], decExp(body[j+1], body[j+2])
			if v < 0 {
				n = satAdd(n, satMul(k, size(int(-v-1))))
			} else {
				n = satAdd(n, k)
			}
		}
		memo[r] = n
		return n
	}
	size(0)
	return memo
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
// exceeds max (max <= 0 disables the cap). The serialized form is
// indexed once; the output is allocated at its final size and filled
// in bulk: a terminal run is one fill, a rule's second and later
// expansions (by reference or by exponent) are copies of its first.
func (sg Serialized) ExpandCapped(max int64) (seq []int32, n int64) {
	off := sg.ruleOffsets()
	size := sg.ruleSizes(off)
	n = size[0]
	if max > 0 && n > max {
		return nil, n
	}
	out := make([]int32, n)
	first := make([]int64, len(size)) // where rule r was first expanded in out
	for i := range first {
		first[i] = -1
	}
	var fill func(r int, pos int64)
	fill = func(r int, pos int64) {
		body := sg[off[r]+1 : off[r+1]]
		for j := 0; j < len(body); j += 3 {
			v, k := body[j], decExp(body[j+1], body[j+2])
			if v >= 0 {
				run := out[pos : pos+k]
				for i := range run {
					run[i] = v
				}
				pos += k
				continue
			}
			ref := int(-v - 1)
			one, all := size[ref], size[ref]*k
			if at := first[ref]; at >= 0 {
				copy(out[pos:pos+one], out[at:])
			} else {
				fill(ref, pos)
				first[ref] = pos
			}
			for done := one; done < all; {
				done += int64(copy(out[pos+done:pos+all], out[pos:pos+done]))
			}
			pos += all
		}
	}
	fill(0, 0)
	return out, n
}

// Sym is the exported form of a serialized grammar symbol: Val is a
// terminal id when >= 0, otherwise a rule reference encoding rule
// index i as -(i+1); Exp is the repetition count.
type Sym struct {
	Val int32
	Exp int64
}

// Rules decodes the serialized grammar into per-rule symbol slices
// (rule 0 is the start rule). Used by consumers that mirror the
// grammar's structure, e.g. the mini-app source generator.
func (sg Serialized) Rules() [][]Sym {
	rs := sg.rules()
	out := make([][]Sym, len(rs))
	for i, body := range rs {
		ob := make([]Sym, len(body))
		for j, s := range body {
			ob[j] = Sym{Val: s.val, Exp: s.exp}
		}
		out[i] = ob
	}
	return out
}
