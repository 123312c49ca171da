package sequitur

import "fmt"

// CheckInvariants verifies the structural health of the grammar plus
// the two Sequitur properties. It is intended for tests; it is O(size
// of grammar).
func (g *Grammar) CheckInvariants() error {
	// The cursor is checked as found; everything else is a property of
	// the grammar the ordinary appends build, so the rest runs flushed.
	if err := g.checkCursor(); err != nil {
		return err
	}
	g.flush()
	if err := g.checkOwnership(); err != nil {
		return err
	}
	// Rules are numbered in the order this walk reaches them; it tests
	// every link before following it, which rulesInOrder does not.
	rules := []int32{0}
	seen := make([]bool, len(g.rules))
	seen[0] = true
	type occ struct {
		rule int
		pos  int
	}
	digramsSeen := map[digram]occ{}
	refCount := make([]int32, len(g.rules))
	refExpGT1 := make([]bool, len(g.rules))
	for ri := 0; ri < len(rules); ri++ {
		r := rules[ri]
		if g.rules[r].dead {
			return fmt.Errorf("rule %d is dead but reachable", ri)
		}
		if g.syms[g.rules[r].guard].exp != 0 {
			return fmt.Errorf("rule %d: guard slot freed or reused", ri)
		}
		pos := 0
		for s := g.first(r); !g.isGuard(s); s = g.syms[s].next {
			sy := g.syms[s]
			if sy.exp == freedExp {
				return fmt.Errorf("rule %d pos %d: freed slot reachable", ri, pos)
			}
			if sy.next < 0 || sy.prev < 0 || g.syms[sy.next].prev != s || g.syms[sy.prev].next != s {
				return fmt.Errorf("rule %d pos %d: broken links", ri, pos)
			}
			if sy.exp < 1 {
				return fmt.Errorf("rule %d pos %d: exponent %d < 1", ri, pos, sy.exp)
			}
			if sy.key < 0 {
				if g.rules[-sy.key].dead {
					return fmt.Errorf("rule %d pos %d: references dead rule", ri, pos)
				}
				if sy.usePrev == notListed {
					return fmt.Errorf("rule %d pos %d: missing from use list", ri, pos)
				}
				refCount[-sy.key]++
				if !seen[-sy.key] {
					seen[-sy.key] = true
					rules = append(rules, -sy.key)
				}
				if sy.exp > 1 {
					refExpGT1[-sy.key] = true
				}
			}
			if !g.isGuard(sy.next) {
				if sy.key == g.syms[sy.next].key {
					return fmt.Errorf("rule %d pos %d: adjacent equal symbols not merged", ri, pos)
				}
				d := g.digramAt(s, sy.next)
				if prev, dup := digramsSeen[d]; dup {
					return fmt.Errorf("P1 violated: digram repeated (rule %d pos %d and rule %d pos %d)",
						prev.rule, prev.pos, ri, pos)
				}
				digramsSeen[d] = occ{ri, pos}
				at, _, ok := g.find(d)
				if !ok {
					return fmt.Errorf("rule %d pos %d: digram not indexed", ri, pos)
				}
				if g.index[at].sym != s || g.syms[s].slot != int32(at) {
					return fmt.Errorf("rule %d pos %d: digram indexed at wrong occurrence", ri, pos)
				}
			}
			pos++
		}
		if r != 0 && pos == 0 {
			return fmt.Errorf("rule %d: empty body", ri)
		}
	}
	for i, r := range rules {
		if r == 0 {
			continue
		}
		// The use list must hold exactly the references seen above.
		listed := int32(0)
		for u, prev := g.rules[r].useHead, nilIdx; u != nilIdx; prev, u = u, g.syms[u].useNext {
			if g.syms[u].key != -r || g.syms[u].usePrev != prev || listed > refCount[r] {
				return fmt.Errorf("rule %d: corrupt use list", i)
			}
			listed++
		}
		if listed != g.rules[r].uses || listed != refCount[r] {
			return fmt.Errorf("rule %d: use list holds %d of count %d != observed references %d", i, listed, g.rules[r].uses, refCount[r])
		}
		if refCount[r] == 0 {
			return fmt.Errorf("P2 violated: rule %d unreferenced", i)
		}
		if refCount[r] == 1 && !refExpGT1[r] {
			return fmt.Errorf("P2 violated: rule %d referenced once with exponent 1", i)
		}
		if refCount[r] == 1 && g.bodyLen(r) == 1 {
			return fmt.Errorf("rule %d: unreduced unit rule", i)
		}
	}
	return nil
}

// checkCursor verifies an armed loop cursor without flushing it: the
// start rule ends R^j, or R^j r1 with r1 R's first terminal and the
// cursor past it; each frame is a rule reference in the body the frame
// below it names (R's, at the bottom), with a count under its exponent;
// cur is a terminal of the last body, with rep under its exponent; and
// verify still proves the iteration a no-op.
func (g *Grammar) checkCursor() error {
	if g.cur == nilIdx {
		if len(g.stack) != 0 {
			return fmt.Errorf("loop cursor disarmed but %d stack entries left", len(g.stack))
		}
		return nil
	}
	if g.cur <= 0 || int(g.cur) >= len(g.syms) {
		return fmt.Errorf("loop cursor %d out of range", g.cur)
	}
	run := g.syms[0].prev
	linked := !g.isGuard(run) && g.syms[run].key >= 0
	if linked {
		if g.syms[run].exp != 1 {
			return fmt.Errorf("loop cursor armed but the start rule ends in a terminal of exponent %d", g.syms[run].exp)
		}
		run = g.syms[run].prev
	}
	if g.isGuard(run) || g.syms[run].key >= 0 {
		return fmt.Errorf("loop cursor armed but the start rule does not end in a rule's run")
	}
	r := -g.syms[run].key
	if g.rules[r].dead {
		return fmt.Errorf("loop cursor armed on dead rule %d", r)
	}
	if len(g.stack)%2 != 0 {
		return fmt.Errorf("loop cursor has %d stack entries, not frames", len(g.stack))
	}
	inBody := func(r, s int32) bool {
		for c := g.first(r); !g.isGuard(c); c = g.syms[c].next {
			if c == s {
				return true
			}
		}
		return false
	}
	atStart := true // the cursor is on R's first terminal with nothing counted
	body := r
	for i := 0; i < len(g.stack); i += 2 {
		ref, done := g.stack[i], g.stack[i+1]
		if ref <= 0 || int(ref) >= len(g.syms) || g.syms[ref].key >= 0 || !inBody(body, ref) {
			return fmt.Errorf("loop cursor frame %d is not a rule reference in the body below it", i/2)
		}
		if done < 0 || int64(done) >= g.syms[ref].exp {
			return fmt.Errorf("loop cursor frame %d counts %d repetitions of %d", i/2, done, g.syms[ref].exp)
		}
		atStart = atStart && done == 0 && ref == g.first(body)
		body = -g.syms[ref].key
	}
	if g.syms[g.cur].key < 0 || !inBody(body, g.cur) {
		return fmt.Errorf("loop cursor %d is not a terminal of the body it stands in", g.cur)
	}
	if g.rep < 0 || int64(g.rep) >= g.syms[g.cur].exp {
		return fmt.Errorf("loop cursor counts %d repetitions of a terminal of exponent %d", g.rep, g.syms[g.cur].exp)
	}
	atStart = atStart && g.rep == 0 && g.cur == g.first(body)
	if linked {
		if atStart {
			return fmt.Errorf("loop cursor on R's first terminal, which is linked already")
		}
		f := g.first(r)
		for g.syms[f].key < 0 {
			f = g.first(-g.syms[f].key)
		}
		if g.syms[f].key != g.syms[g.syms[0].prev].key {
			return fmt.Errorf("loop cursor armed but rule %d does not begin with the tail terminal", r)
		}
	}
	own := nilIdx
	if linked {
		own = run
	}
	if !g.verify(run, own) {
		return fmt.Errorf("loop cursor armed on an iteration of rule %d the slow path would not end in R^(j+1)", r)
	}
	return nil
}

// checkOwnership verifies that symbols and index entries name each
// other: a symbol's slot is noSlot or the position of an entry that
// points back at it and holds the fingerprint of the digram it starts;
// no entry goes unowned (so none is claimed twice either); guards and
// freed slots own nothing. Between appends every slab slot is a guard,
// freed, or a live body symbol, so the slab is walked whole.
func (g *Grammar) checkOwnership() error {
	owned := 0
	for s := range g.syms {
		sy := &g.syms[s]
		if sy.slot == noSlot {
			continue
		}
		if sy.exp < 1 {
			return fmt.Errorf("symbol %d: guard or freed slot owns index entry %d", s, sy.slot)
		}
		if sy.slot < 0 || int(sy.slot) >= len(g.index) {
			return fmt.Errorf("symbol %d: index slot %d out of range", s, sy.slot)
		}
		e := g.index[sy.slot]
		if e.sym != int32(s) {
			return fmt.Errorf("symbol %d: claims index entry %d, which is empty or another symbol's", s, sy.slot)
		}
		if sy.next < 0 || g.isGuard(sy.next) {
			return fmt.Errorf("symbol %d: owns an index entry for a digram it does not start", s)
		}
		if e.fp != uint32(g.digramAt(int32(s), sy.next).hash()) {
			return fmt.Errorf("symbol %d: owns an index entry whose fingerprint is not the digram it starts", s)
		}
		owned++
	}
	occupied := 0
	for _, e := range g.index {
		if e.sym != 0 {
			occupied++
		}
	}
	if occupied != owned || occupied != int(g.nIdx) {
		return fmt.Errorf("digram index holds %d entries (count says %d), %d of them owned", occupied, g.nIdx, owned)
	}
	return nil
}
