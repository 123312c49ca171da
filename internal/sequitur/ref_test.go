package sequitur

// The pointer-based Sequitur this package shipped before the grammar
// moved onto index-addressed slabs, kept verbatim (types renamed) as
// the oracle for TestDifferentialVsReference and
// FuzzAppendDifferential: the slab implementation must make the same
// decisions, so Serialize() must agree after every append.
//
// eliminateUnitRule ranges over a Go map, so where a unit rule has more
// than one user the reference's own output can depend on iteration
// order; the differential test builds it twice per stream to show the
// streams it compares on are not sensitive to that.

// symbol is a node in a doubly linked rule body. A symbol is either a
// terminal (rule == nil) or a reference to a rule (rule != nil). Guard
// nodes delimit rule bodies; they are identified by owner != nil.
type refSymbol struct {
	next, prev *refSymbol
	value      int32    // terminal id when rule == nil
	exp        int64    // repetition count, >= 1
	rule       *refRule // referenced rule for non-terminals
	owner      *refRule // non-nil for guard nodes only
}

func (s *refSymbol) isGuard() bool { return s.owner != nil }

// alive reports whether s is still spliced into some rule body.
// Symbols removed by unlink have their links cleared.
func (s *refSymbol) alive() bool { return s.prev != nil && s.next != nil }

// sameKind reports whether two symbols refer to the same terminal or
// the same rule, ignoring exponents.
func (s *refSymbol) sameKind(o *refSymbol) bool {
	if s.rule != nil || o.rule != nil {
		return s.rule == o.rule
	}
	return s.value == o.value
}

// digram is the hash key for an adjacent symbol pair. Exponents are
// part of the identity: a³b and a²b are different digrams.
type refDigram struct {
	v1, v2 int32
	e1, e2 int64
	r1, r2 *refRule
}

func refMakeDigram(a, b *refSymbol) refDigram {
	return refDigram{v1: a.value, v2: b.value, e1: a.exp, e2: b.exp, r1: a.rule, r2: b.rule}
}

// Rule is a grammar production. The body is a circular doubly linked
// list threaded through a guard node.
type refRule struct {
	guard *refSymbol
	users map[*refSymbol]struct{} // occurrence sites (excludes the start rule, which has none)
	id    int                     // stable creation index, for deterministic serialization
	dead  bool
}

func (r *refRule) first() *refSymbol { return r.guard.next }
func (r *refRule) last() *refSymbol  { return r.guard.prev }

func (r *refRule) bodyLen() int {
	n := 0
	for s := r.first(); !s.isGuard(); s = s.next {
		n++
	}
	return n
}

// Grammar is an incrementally built context-free grammar that uniquely
// generates the sequence of terminals appended to it.
type refGrammar struct {
	start   *refRule
	digrams map[refDigram]*refSymbol // digram -> first symbol of its unique occurrence
	nextID  int
	nTerms  int64 // number of terminals appended (uncompressed length)
}

// New returns an empty grammar.
func newRef() *refGrammar {
	g := &refGrammar{digrams: make(map[refDigram]*refSymbol)}
	g.start = g.newRule()
	return g
}

func (g *refGrammar) newRule() *refRule {
	r := &refRule{users: make(map[*refSymbol]struct{}), id: g.nextID}
	g.nextID++
	guard := &refSymbol{owner: r}
	guard.next = guard
	guard.prev = guard
	r.guard = guard
	return r
}

// InputLen returns the number of terminals appended so far (the length
// of the uncompressed sequence the grammar generates).
func (g *refGrammar) InputLen() int64 { return g.nTerms }

// Append adds one terminal to the end of the sequence.
func (g *refGrammar) Append(t int32) { g.AppendRun(t, 1) }

// AppendRun adds k consecutive copies of terminal t.
func (g *refGrammar) AppendRun(t int32, k int64) {
	if k <= 0 {
		return
	}
	if t < 0 {
		panic("sequitur: negative terminal")
	}
	g.nTerms += k
	s := &refSymbol{value: t, exp: k}
	g.insertAfter(g.start.last(), s)
	g.linkMade(s.prev, s)
}

// insertAfter splices s into the list after pos. It does not perform
// digram bookkeeping; callers use linkMade / removeDigram around it.
func (g *refGrammar) insertAfter(pos, s *refSymbol) {
	s.prev = pos
	s.next = pos.next
	pos.next.prev = s
	pos.next = s
}

// unlink removes s from its list, removes the digrams it participates
// in from the index, and clears s's links so alive() turns false. The
// link formed between its old neighbours is NOT checked here.
func (g *refGrammar) unlink(s *refSymbol) {
	g.removeDigram(s.prev, s)
	g.removeDigram(s, s.next)
	s.prev.next = s.next
	s.next.prev = s.prev
	s.prev = nil
	s.next = nil
}

// removeDigram deletes the digram (a,b) from the index if the indexed
// occurrence is exactly this one.
func (g *refGrammar) removeDigram(a, b *refSymbol) {
	if a == nil || b == nil || a.isGuard() || b.isGuard() {
		return
	}
	d := refMakeDigram(a, b)
	if g.digrams[d] == a {
		delete(g.digrams, d)
	}
}

// deref removes s from the user set of the rule it references and
// inlines / eliminates that rule if it became useless (P2).
func (g *refGrammar) deref(s *refSymbol) {
	r := s.rule
	if r == nil {
		return
	}
	delete(r.users, s)
	g.maybeInline(r)
}

// maybeInline enforces P2: if r has exactly one remaining use with
// exponent 1, the rule body is spliced in at that use and r deleted.
func (g *refGrammar) maybeInline(r *refRule) {
	if r == g.start || r.dead || len(r.users) != 1 {
		return
	}
	var use *refSymbol
	for u := range r.users {
		use = u
	}
	if use.exp != 1 || !use.alive() {
		return
	}
	prev := use.prev
	next := use.next
	g.unlink(use)
	delete(r.users, use)
	r.dead = true
	first := r.first()
	last := r.last()
	if first.isGuard() {
		// Empty body (cannot normally happen); just close the gap.
		g.linkMade(prev, next)
		return
	}
	// Splice r's body between prev and next. Interior digrams stay
	// indexed and valid; only the two boundary links are new.
	prev.next = first
	first.prev = prev
	last.next = next
	next.prev = last
	if !g.linkMade(prev, first) && next.alive() {
		g.linkMade(next.prev, next)
	}
}

// linkMade is the heart of the algorithm: called whenever two symbols
// become adjacent. It merges equal neighbours (run-length) and
// otherwise enforces digram uniqueness (P1). It reports whether it
// restructured the grammar (merged, substituted, or cascaded); callers
// holding neighbouring pointers must treat them as stale when true.
func (g *refGrammar) linkMade(a, b *refSymbol) bool {
	if a == nil || b == nil || a.isGuard() || b.isGuard() {
		return false
	}
	if !a.alive() || !b.alive() || a.next != b {
		return false
	}
	if a.sameKind(b) {
		g.mergeRun(a, b)
		return true
	}
	d := refMakeDigram(a, b)
	match, ok := g.digrams[d]
	if !ok {
		g.digrams[d] = a
		return false
	}
	if match == a {
		return false
	}
	if !match.alive() || match.next == nil || refMakeDigram(match, match.next) != d {
		// Stale index entry; repoint at the live occurrence.
		g.digrams[d] = a
		return false
	}
	g.processMatch(a, match)
	return true
}

// mergeRun implements the run-length optimization: aᶦ aʲ → aᶦ⁺ʲ.
func (g *refGrammar) mergeRun(a, b *refSymbol) {
	// Digrams touching either symbol change identity; drop them first.
	g.removeDigram(a.prev, a)
	g.unlink(b) // removes (a,b) and (b,b.next) entries
	if b.rule != nil {
		delete(b.rule.users, b)
	}
	a.exp += b.exp
	// A body that collapsed to a single symbol makes its rule a unit
	// rule; eliminate it.
	if a.prev.isGuard() && a.next.isGuard() && a.prev.owner != g.start && !a.prev.owner.dead {
		g.eliminateUnitRule(a.prev.owner)
		return
	}
	if !g.linkMade(a.prev, a) && a.alive() {
		g.linkMade(a, a.next)
	}
}

// eliminateUnitRule removes a rule whose body is a single symbol Xᵉ by
// rewriting every use Rᵏ as Xᵉᵏ.
func (g *refGrammar) eliminateUnitRule(r *refRule) {
	body := r.first()
	if body.isGuard() || !body.next.isGuard() {
		return // not a unit rule
	}
	r.dead = true
	inner := body
	users := make([]*refSymbol, 0, len(r.users))
	for u := range r.users {
		users = append(users, u)
	}
	for _, u := range users {
		delete(r.users, u)
		if !u.alive() {
			continue
		}
		g.removeDigram(u.prev, u)
		g.removeDigram(u, u.next)
		u.rule = inner.rule
		u.value = inner.value
		u.exp *= inner.exp
		if inner.rule != nil {
			inner.rule.users[u] = struct{}{}
		}
		if !g.linkMade(u.prev, u) && u.alive() {
			g.linkMade(u, u.next)
		}
	}
	// Drop the body symbol's own reference.
	if inner.rule != nil {
		delete(inner.rule.users, inner)
		g.maybeInline(inner.rule)
	}
}

// processMatch handles a repeated digram: (a, a.next) matches (m,
// m.next) elsewhere. Either reuse an existing 2-symbol rule or create
// a new one.
func (g *refGrammar) processMatch(a, m *refSymbol) {
	if m.prev.isGuard() && m.next.next.isGuard() && !m.prev.owner.dead && m.prev.owner != g.start {
		// The match is the complete body of an existing rule: reuse it.
		g.substitute(a, m.prev.owner)
		return
	}
	// Create a new rule from copies of the digram.
	r := g.newRule()
	c1 := &refSymbol{value: a.value, exp: a.exp, rule: a.rule}
	c2 := &refSymbol{value: a.next.value, exp: a.next.exp, rule: a.next.rule}
	if c1.rule != nil {
		c1.rule.users[c1] = struct{}{}
	}
	if c2.rule != nil {
		c2.rule.users[c2] = struct{}{}
	}
	g.insertAfter(r.guard, c1)
	g.insertAfter(c1, c2)
	d := refMakeDigram(c1, c2)
	g.digrams[d] = c1 // rule body becomes the canonical occurrence
	// Replace the new occurrence first (its pointers are known live),
	// then the older one if cascades have not already consumed it.
	g.substitute(a, r)
	if m.alive() && m.next != nil && !m.next.isGuard() && refMakeDigram(m, m.next) == d && !r.dead {
		g.substitute(m, r)
	}
	if !r.dead {
		g.maybeInline(r)
	}
}

// substitute replaces the digram starting at s with a reference to
// rule r.
func (g *refGrammar) substitute(s *refSymbol, r *refRule) {
	prev := s.prev
	b := s.next
	g.unlink(s)
	g.unlink(b)
	g.deref(s)
	g.deref(b)
	ref := &refSymbol{rule: r, exp: 1}
	r.users[ref] = struct{}{}
	g.insertAfter(prev, ref)
	// A 2-symbol body shrank to 1: unit rule, eliminate it.
	if prev.isGuard() && ref.next.isGuard() && prev.owner != g.start && !prev.owner.dead {
		g.eliminateUnitRule(prev.owner)
		return
	}
	if !g.linkMade(prev, ref) && ref.alive() {
		g.linkMade(ref, ref.next)
	}
}

// rulesInOrder returns the rules reachable from the start rule, start
// first, in deterministic DFS order.
func (g *refGrammar) rulesInOrder() []*refRule {
	var order []*refRule
	seen := map[*refRule]bool{}
	var visit func(r *refRule)
	visit = func(r *refRule) {
		if seen[r] {
			return
		}
		seen[r] = true
		order = append(order, r)
		for s := r.first(); !s.isGuard(); s = s.next {
			if s.rule != nil {
				visit(s.rule)
			}
		}
	}
	visit(g.start)
	return order
}

func (g *refGrammar) Serialize() []int32 {
	rules := g.rulesInOrder()
	index := make(map[*refRule]int32, len(rules))
	for i, r := range rules {
		index[r] = int32(i)
	}
	out := make([]int32, 0, 1+len(rules)*4)
	out = append(out, int32(len(rules)))
	for _, r := range rules {
		n := int32(r.bodyLen())
		out = append(out, n)
		for s := r.first(); !s.isGuard(); s = s.next {
			v := s.value
			if s.rule != nil {
				v = -(index[s.rule] + 1)
			}
			lo, hi := encExp(s.exp)
			out = append(out, v, lo, hi)
		}
	}
	return out
}

// NewRef hands the reference to the external test package, which needs
// to import packages that themselves import sequitur.
func NewRef() *refGrammar { return newRef() }
