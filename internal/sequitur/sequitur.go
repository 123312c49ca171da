// Package sequitur implements the Sequitur grammar-inference algorithm
// (Nevill-Manning & Witten, 1997) extended with the run-length
// ("repetition count") optimization used by Pilgrim (SC '21, §2.2):
// grammar symbols carry exponents, so a production A → B B becomes
// A → B², and a loop of N identical iterations compresses to a single
// O(1)-size rule A → Bᴺ instead of an O(log N) rule chain.
//
// The grammar is built incrementally, one terminal at a time, in
// amortized linear time. Two invariants are maintained, mirroring the
// paper:
//
//	P1 (digram uniqueness): no pair of adjacent symbols appears more
//	    than once in the grammar. Because adjacent equal symbols merge
//	    into one run-length symbol, a digram always joins two distinct
//	    symbols, so occurrences can never overlap.
//	P2 (rule utility): every rule is referenced either from more than
//	    one site, or from a single site with exponent > 1.
//
// Terminals are non-negative int32 values (Pilgrim uses CST terminal
// ids). Exponents are int64.
//
// Symbols and rules live in two slabs and name each other by int32
// index, and the digram index is one open-addressed table, so the
// builder holds no pointers and a warm Append allocates nothing
// (DESIGN.md, "Sequitur with run-length symbols").
package sequitur

import "fmt"

const (
	nilIdx    int32 = -1 // no symbol
	notListed int32 = -2 // symbol.usePrev of a symbol on no rule's use list
	noSlot    int32 = -1 // symbol.slot of a symbol no index entry points at
	freedExp  int64 = -1 // symbol.exp of a slot on the free list
)

// symbol is a node in a doubly linked rule body: a terminal (key >= 0)
// or a reference to rule -key (rule 0, the start rule, is never
// referenced). Guard nodes delimit rule bodies; they have exp == 0 and
// key == -owner.
type symbol struct {
	exp              int64 // repetition count, >= 1
	next, prev       int32 // body links; nilIdx once unlinked
	key              int32 // terminal id or -rule; exponents aside, equal keys are equal symbols
	useNext, usePrev int32 // links in the referenced rule's use list; useNext also chains freed slots
	slot             int32 // position of the index entry pointing at this symbol, or noSlot
}

// rule is a grammar production. The body is a circular doubly linked
// list threaded through a guard node.
type rule struct {
	guard            int32 // also chains free rule slots
	useHead, useTail int32 // occurrence sites in insertion order (the start rule has none)
	uses             int32
	dead             bool
}

// digram is the index key for an adjacent symbol pair. Exponents are
// part of the identity: a³b and a²b are different digrams.
type digram struct {
	e1, e2 int64
	k1, k2 int32
}

func (d digram) hash() uint64 {
	h := (uint64(uint32(d.k1))<<32 | uint64(uint32(d.k2))) * 0x9E3779B97F4A7C15
	h = (h ^ h>>32 ^ uint64(d.e1)) * 0xC2B2AE3D27D4EB4F
	h = (h ^ h>>29 ^ uint64(d.e2)) * 0x165667B19E3779F9
	return h ^ h>>32
}

// digramEntry maps a digram to the first symbol of its unique
// occurrence. It keeps only the low 32 bits of the digram's hash, which
// also give its home slot; the digram itself is read from the symbol.
// sym == 0 marks an empty slot (the start rule's guard owns nothing).
// That symbol's slot names the entry back: a symbol owns at most one
// entry, the one for the digram it starts, every occupied entry is
// owned, and whoever moves, overwrites or deletes an entry moves or
// releases the claim with it.
type digramEntry struct {
	fp  uint32
	sym int32
}

// Grammar is an incrementally built context-free grammar that uniquely
// generates the sequence of terminals appended to it.
type Grammar struct {
	syms  []symbol      // syms[0] is the start rule's guard
	rules []rule        // rules[0] is the start rule
	index []digramEntry // open-addressed, linear probing; len is 0 or a power of two
	nIdx  int           // occupied index slots

	// Slots freed while an append cascades go on pendSyms and are only
	// reusable once AppendRun returns: cascades hold handles to symbols
	// and rules they have already removed and test alive/dead on them.
	freeSyms, pendSyms int32
	freeRules          int32
	cur                int32   // loop cursor (see arm), or nilIdx
	users              []int32 // eliminateUnitRule's snapshots, used as a stack
	nTerms             int64   // number of terminals appended (uncompressed length)
}

// New returns an empty grammar.
func New() *Grammar {
	g := new(Grammar)
	g.Init(nil)
	return g
}

// Slab is the storage a grammar starts in: 16 symbols, guards
// included, and a digram index of 16 entries, all a short sequence
// (a cg rank's 34 calls) ever holds. A grammar that outgrows a part
// moves that part to a slab of its own, as any growth does, and the
// part left behind is dead weight until the Slab is collected.
type Slab struct {
	syms  [16]symbol
	index [16]digramEntry
}

// Init makes g an empty grammar. Given a zero Slab, which g then owns,
// its symbols and digram index start there and its rules in a slab of
// four, so that a short sequence grows nothing; given nil, every slab
// grows from empty.
func (g *Grammar) Init(s *Slab) {
	*g = Grammar{freeSyms: nilIdx, pendSyms: nilIdx, freeRules: nilIdx, cur: nilIdx}
	if s != nil {
		g.syms, g.index = s.syms[:0], s.index[:]
		g.rules = make([]rule, 0, 4)
	}
	g.newRule()
}

func (g *Grammar) newSym(key int32, exp int64) int32 {
	s := g.freeSyms
	if s != nilIdx {
		g.freeSyms = g.syms[s].useNext
	} else {
		s = int32(len(g.syms))
		g.syms = append(g.syms, symbol{})
	}
	// Field by field through a pointer: a composite literal here is built
	// on the stack and block-copied, and that store stalls the append.
	sy := &g.syms[s]
	sy.exp, sy.key = exp, key
	sy.next, sy.prev = nilIdx, nilIdx
	sy.useNext, sy.usePrev, sy.slot = nilIdx, notListed, noSlot
	return s
}

// freeSym retires a symbol no list reaches any more. Its fields stay
// readable until AppendRun returns; an index entry it still owns goes
// with it, so none outlives its symbol.
func (g *Grammar) freeSym(s int32) {
	if pos := g.syms[s].slot; pos != noSlot {
		g.deleteAt(int(pos))
	}
	g.syms[s].useNext = g.pendSyms
	g.pendSyms = s
}

// recycle makes the slots freed during this append reusable; a dead
// rule's slot goes with its guard.
func (g *Grammar) recycle() {
	for s := g.pendSyms; s != nilIdx; {
		sy := &g.syms[s]
		next := sy.useNext
		if sy.exp == 0 {
			g.rules[-sy.key].guard = g.freeRules
			g.freeRules = -sy.key
		}
		sy.exp, sy.useNext = freedExp, g.freeSyms
		g.freeSyms = s
		s = next
	}
	g.pendSyms = nilIdx
}

func (g *Grammar) newRule() int32 {
	r := g.freeRules
	if r != nilIdx {
		g.freeRules = g.rules[r].guard
	} else {
		r = int32(len(g.rules))
		g.rules = append(g.rules, rule{})
	}
	guard := g.newSym(-r, 0)
	g.syms[guard].next, g.syms[guard].prev = guard, guard
	g.rules[r] = rule{guard: guard, useHead: nilIdx, useTail: nilIdx}
	return r
}

func (g *Grammar) isGuard(s int32) bool { return g.syms[s].exp == 0 }

// first returns the first body symbol of rule r (its guard if empty).
func (g *Grammar) first(r int32) int32 { return g.syms[g.rules[r].guard].next }

// alive reports whether s is still spliced into some rule body.
// Symbols removed by unlink have their links cleared.
func (g *Grammar) alive(s int32) bool { return g.syms[s].prev != nilIdx && g.syms[s].next != nilIdx }

func (g *Grammar) digramAt(a, b int32) digram {
	sa, sb := &g.syms[a], &g.syms[b]
	return digram{e1: sa.exp, e2: sb.exp, k1: sa.key, k2: sb.key}
}

func (g *Grammar) bodyLen(r int32) int {
	n := 0
	for s := g.first(r); !g.isGuard(s); s = g.syms[s].next {
		n++
	}
	return n
}

// addUse appends rule reference s to its rule's use list.
func (g *Grammar) addUse(s int32) {
	r := &g.rules[-g.syms[s].key]
	g.syms[s].usePrev, g.syms[s].useNext = r.useTail, nilIdx
	if r.useTail != nilIdx {
		g.syms[r.useTail].useNext = s
	} else {
		r.useHead = s
	}
	r.useTail = s
	r.uses++
}

// dropUse removes s from its rule's use list; a symbol on no list is
// left alone.
func (g *Grammar) dropUse(s int32) {
	sy := &g.syms[s]
	if sy.usePrev == notListed {
		return
	}
	r := &g.rules[-sy.key]
	if sy.usePrev != nilIdx {
		g.syms[sy.usePrev].useNext = sy.useNext
	} else {
		r.useHead = sy.useNext
	}
	if sy.useNext != nilIdx {
		g.syms[sy.useNext].usePrev = sy.usePrev
	} else {
		r.useTail = sy.usePrev
	}
	sy.usePrev = notListed
	r.uses--
}

// find returns the index slot holding d, or the empty slot where d
// would go (-1 while the table is unallocated), and d's fingerprint. A
// slot whose fingerprint matches is d's only if its owner starts d.
func (g *Grammar) find(d digram) (pos int, fp uint32, ok bool) {
	fp = uint32(d.hash())
	mask := len(g.index) - 1
	if mask < 0 {
		return -1, fp, false
	}
	for pos = int(fp) & mask; ; pos = (pos + 1) & mask {
		e := &g.index[pos]
		if e.sym == 0 {
			return pos, fp, false
		}
		if e.fp == fp && g.digramAt(e.sym, g.syms[e.sym].next) == d {
			return pos, fp, true
		}
	}
}

// emptySlot returns the first empty slot on fingerprint fp's probe path.
func (g *Grammar) emptySlot(fp uint32) int {
	mask := len(g.index) - 1
	pos := int(fp) & mask
	for g.index[pos].sym != 0 {
		pos = (pos + 1) & mask
	}
	return pos
}

// setDigram points the index entry of the digram s starts at s, which
// owns no entry yet; pos, fp and ok are what find returned for it. The
// occurrence the entry pointed at before loses its claim.
func (g *Grammar) setDigram(pos int, fp uint32, ok bool, s int32) {
	if ok {
		g.syms[g.index[pos].sym].slot = noSlot
	} else {
		if (g.nIdx+1)*2 > len(g.index) {
			g.growIndex()
			pos = g.emptySlot(fp)
		}
		g.nIdx++
	}
	g.index[pos] = digramEntry{fp: fp, sym: s}
	g.syms[s].slot = int32(pos)
}

// growIndex doubles the table; the fingerprints give the new home
// slots, so nothing is rehashed.
func (g *Grammar) growIndex() {
	old := g.index
	g.index = make([]digramEntry, max(8, 2*len(old)))
	for _, e := range old {
		if e.sym != 0 {
			pos := g.emptySlot(e.fp)
			g.index[pos] = e
			g.syms[e.sym].slot = int32(pos)
		}
	}
}

// deleteAt empties index slot i, releasing its claim, and shifts the
// entries probing past it back, so lookups need no tombstones.
func (g *Grammar) deleteAt(i int) {
	g.syms[g.index[i].sym].slot = noSlot
	mask := len(g.index) - 1
	for j := (i + 1) & mask; g.index[j].sym != 0; j = (j + 1) & mask {
		// The entry at j may move into the hole unless its home slot
		// lies after the hole on its probe path.
		if home := int(g.index[j].fp) & mask; (j-home)&mask >= (j-i)&mask {
			g.index[i] = g.index[j]
			g.syms[g.index[i].sym].slot = int32(i)
			i = j
		}
	}
	g.index[i] = digramEntry{}
	g.nIdx--
}

// InputLen returns the number of terminals appended so far (the length
// of the uncompressed sequence the grammar generates).
func (g *Grammar) InputLen() int64 { return g.nTerms }

// Append adds one terminal to the end of the sequence.
func (g *Grammar) Append(t int32) { g.AppendRun(t, 1) }

// AppendRun adds k consecutive copies of terminal t.
func (g *Grammar) AppendRun(t int32, k int64) {
	if k <= 0 {
		return
	}
	if t < 0 {
		panic("sequitur: negative terminal")
	}
	g.nTerms += k
	if g.cur != nilIdx {
		if sy := &g.syms[g.cur]; k == 1 && sy.key == t && sy.exp == 1 {
			if g.isGuard(sy.next) {
				g.completeLoop()
			} else {
				g.cur = sy.next
			}
			return
		}
		g.flush()
	}
	last := g.syms[0].prev
	if !g.appendSlow(t, k) && k == 1 && g.syms[last].key < 0 {
		g.arm(-g.syms[last].key, t)
	}
}

// appendSlow is the textbook append: link t^k at the end of the start
// rule and restore P1 and P2. It reports whether that restructured the
// grammar.
func (g *Grammar) appendSlow(t int32, k int64) bool {
	s := g.newSym(t, k)
	g.insertAfter(g.syms[0].prev, s)
	changed := g.linkMade(g.syms[s].prev, s)
	g.recycle()
	return changed
}

// The loop cursor. On a steady loop the start rule ends R^j and the
// next iteration arrives one terminal at a time; appendSlow rebuilds R's
// body out of temporary rules, finds it is R, and tears them down again
// to reach R^(j+1). While the arrivals spell R's body the cursor only
// counts them: cur is the body symbol the next terminal has to equal,
// the terminals seen so far are R's body from its second symbol up to
// cur (the first is linked at the tail), and the grammar is untouched.
// The last one bumps the run (completeLoop); anything else replays them
// through appendSlow (flush), as does every reader of the grammar, so
// what an observer sees is what appendSlow alone would have built
// (DESIGN.md, "Loop cursor", has the argument).

// arm sets the cursor after an append of terminal t that restructured
// nothing and left the start rule ending R^j t, if t^1 is the first of
// at least three body symbols of R.
func (g *Grammar) arm(r, t int32) {
	f := &g.syms[g.first(r)]
	if f.key == t && f.exp == 1 && !g.isGuard(f.next) && !g.isGuard(g.syms[f.next].next) {
		g.cur = f.next
	}
}

// completeLoop ends an iteration the cursor followed to R's guard: the
// tail R^j r1 becomes R^j R, which is the substitute(·, R) appendSlow's
// last match ends in, and linkMade merges the run and re-checks the
// digram on its left.
func (g *Grammar) completeLoop() {
	g.cur = nilIdx
	r1 := g.syms[0].prev
	run := g.syms[r1].prev
	g.unlink(r1)
	g.freeSym(r1)
	ref := g.newSym(g.syms[run].key, 1)
	g.addUse(ref)
	g.insertAfter(run, ref)
	g.linkMade(run, ref)
	g.recycle()
}

// flush clears the cursor and appends the terminals it was holding the
// ordinary way. They are copied out first (appendSlow rewrites the body
// they are read from), onto the stack unless the body is unusually long.
func (g *Grammar) flush() {
	end := g.cur
	if end == nilIdx {
		return
	}
	g.cur = nilIdx
	r := -g.syms[g.syms[g.syms[0].prev].prev].key
	s := g.syms[g.first(r)].next
	if s == end {
		return // armed by the last append: nothing held yet
	}
	var buf [64]int32
	pend := buf[:0]
	for ; s != end; s = g.syms[s].next {
		pend = append(pend, g.syms[s].key)
	}
	for _, t := range pend {
		g.appendSlow(t, 1)
	}
}

// insertAfter splices s into the list after pos. It does not perform
// digram bookkeeping; callers use linkMade / removeDigram around it.
func (g *Grammar) insertAfter(pos, s int32) {
	next := g.syms[pos].next
	g.syms[s].prev, g.syms[s].next = pos, next
	g.syms[next].prev = s
	g.syms[pos].next = s
}

// unlink removes s from its list, removes the digrams it participates
// in from the index, and clears s's links so alive() turns false. The
// link formed between its old neighbours is NOT checked here.
func (g *Grammar) unlink(s int32) {
	sy := &g.syms[s]
	g.removeDigram(sy.prev)
	g.removeDigram(s)
	g.syms[sy.prev].next = sy.next
	g.syms[sy.next].prev = sy.prev
	sy.prev, sy.next = nilIdx, nilIdx
}

// removeDigram deletes the digram a starts from the index if the
// indexed occurrence is exactly this one, which a knows: the only entry
// it can own is that digram's. A guard, and a symbol followed by one,
// start no digram and own nothing.
func (g *Grammar) removeDigram(a int32) {
	if a == nilIdx {
		return
	}
	if pos := g.syms[a].slot; pos != noSlot {
		g.deleteAt(int(pos))
	}
}

// deref removes s from the use list of the rule it references and
// inlines / eliminates that rule if it became useless (P2).
func (g *Grammar) deref(s int32) {
	if k := g.syms[s].key; k < 0 {
		g.dropUse(s)
		g.maybeInline(-k)
	}
}

// maybeInline enforces P2: if r has exactly one remaining use with
// exponent 1, the rule body is spliced in at that use and r deleted.
func (g *Grammar) maybeInline(r int32) {
	if r == 0 || g.rules[r].dead || g.rules[r].uses != 1 {
		return
	}
	use := g.rules[r].useHead
	if g.syms[use].exp != 1 || !g.alive(use) {
		return
	}
	prev, next := g.syms[use].prev, g.syms[use].next
	g.unlink(use)
	g.dropUse(use)
	g.freeSym(use)
	g.rules[r].dead = true
	guard := g.rules[r].guard
	first, last := g.syms[guard].next, g.syms[guard].prev
	g.freeSym(guard)
	if first == guard {
		// Empty body (cannot normally happen); just close the gap.
		g.linkMade(prev, next)
		return
	}
	// Splice r's body between prev and next. Interior digrams stay
	// indexed and valid; only the two boundary links are new.
	g.syms[prev].next = first
	g.syms[first].prev = prev
	g.syms[last].next = next
	g.syms[next].prev = last
	if !g.linkMade(prev, first) && g.alive(next) {
		g.linkMade(g.syms[next].prev, next)
	}
}

// linkMade is the heart of the algorithm: called whenever two symbols
// become adjacent. It merges equal neighbours (run-length) and
// otherwise enforces digram uniqueness (P1). It reports whether it
// restructured the grammar (merged, substituted, or cascaded); callers
// holding neighbouring handles must treat them as stale when true.
func (g *Grammar) linkMade(a, b int32) bool {
	if a == nilIdx || b == nilIdx || g.isGuard(a) || g.isGuard(b) {
		return false
	}
	if !g.alive(a) || !g.alive(b) || g.syms[a].next != b {
		return false
	}
	if g.syms[a].key == g.syms[b].key {
		g.mergeRun(a, b)
		return true
	}
	pos, fp, ok := g.find(g.digramAt(a, b))
	if !ok {
		g.setDigram(pos, fp, false, a)
		return false
	}
	if m := g.index[pos].sym; m != a {
		g.processMatch(a, m)
		return true
	}
	return false
}

// mergeRun implements the run-length optimization: aᶦ aʲ → aᶦ⁺ʲ.
func (g *Grammar) mergeRun(a, b int32) {
	// Digrams touching either symbol change identity; drop them first.
	g.removeDigram(g.syms[a].prev)
	g.unlink(b) // removes (a,b) and (b,b.next) entries
	g.dropUse(b)
	g.syms[a].exp += g.syms[b].exp
	g.freeSym(b)
	// A body that collapsed to a single symbol makes its rule a unit
	// rule; eliminate it.
	if prev := g.syms[a].prev; g.isGuard(prev) && g.isGuard(g.syms[a].next) {
		if owner := -g.syms[prev].key; owner != 0 && !g.rules[owner].dead {
			g.eliminateUnitRule(owner)
			return
		}
	}
	if !g.linkMade(g.syms[a].prev, a) && g.alive(a) {
		g.linkMade(a, g.syms[a].next)
	}
}

// eliminateUnitRule removes a rule whose body is a single symbol Xᵉ by
// rewriting every use Rᵏ as Xᵉᵏ, in the order the uses were added.
func (g *Grammar) eliminateUnitRule(r int32) {
	guard := g.rules[r].guard
	inner := g.syms[guard].next
	if g.isGuard(inner) || !g.isGuard(g.syms[inner].next) {
		return // not a unit rule
	}
	g.rules[r].dead = true
	// Rewriting a use can cascade into r's other uses and into nested
	// eliminations, so walk a snapshot; nested calls stack theirs above.
	base := len(g.users)
	for u := g.rules[r].useHead; u != nilIdx; u = g.syms[u].useNext {
		g.users = append(g.users, u)
	}
	for i, end := base, len(g.users); i < end; i++ {
		u := g.users[i]
		g.dropUse(u)
		if !g.alive(u) {
			continue
		}
		g.removeDigram(g.syms[u].prev)
		g.removeDigram(u)
		g.syms[u].key = g.syms[inner].key
		g.syms[u].exp *= g.syms[inner].exp
		if g.syms[u].key < 0 {
			g.addUse(u)
		}
		if !g.linkMade(g.syms[u].prev, u) && g.alive(u) {
			g.linkMade(u, g.syms[u].next)
		}
	}
	g.users = g.users[:base]
	// Drop the body symbol's own reference.
	g.deref(inner)
	g.freeSym(inner)
	g.freeSym(guard)
}

// processMatch handles a repeated digram: (a, a.next) matches (m,
// m.next) elsewhere. Either reuse an existing 2-symbol rule or create
// a new one.
func (g *Grammar) processMatch(a, m int32) {
	if prev := g.syms[m].prev; g.isGuard(prev) && g.isGuard(g.syms[g.syms[m].next].next) {
		if owner := -g.syms[prev].key; owner != 0 && !g.rules[owner].dead {
			// The match is the complete body of an existing rule: reuse it.
			g.substitute(a, owner)
			return
		}
	}
	// Create a new rule from copies of the digram.
	r := g.newRule()
	d := g.digramAt(a, g.syms[a].next)
	c1 := g.newSym(d.k1, d.e1)
	c2 := g.newSym(d.k2, d.e2)
	if d.k1 < 0 {
		g.addUse(c1)
	}
	if d.k2 < 0 {
		g.addUse(c2)
	}
	g.insertAfter(g.rules[r].guard, c1)
	g.insertAfter(c1, c2)
	pos, fp, ok := g.find(d)
	g.setDigram(pos, fp, ok, c1) // rule body becomes the canonical occurrence
	// Replace the new occurrence first (its handles are known live),
	// then the older one if cascades have not already consumed it.
	g.substitute(a, r)
	if g.alive(m) && !g.isGuard(g.syms[m].next) && g.digramAt(m, g.syms[m].next) == d && !g.rules[r].dead {
		g.substitute(m, r)
	}
	if !g.rules[r].dead {
		g.maybeInline(r)
	}
}

// substitute replaces the digram starting at s with a reference to
// rule r.
func (g *Grammar) substitute(s, r int32) {
	prev, b := g.syms[s].prev, g.syms[s].next
	g.unlink(s)
	g.unlink(b)
	g.deref(s)
	g.deref(b)
	g.freeSym(s)
	g.freeSym(b)
	ref := g.newSym(-r, 1)
	g.addUse(ref)
	g.insertAfter(prev, ref)
	// A 2-symbol body shrank to 1: unit rule, eliminate it.
	if g.isGuard(prev) && g.isGuard(g.syms[ref].next) {
		if owner := -g.syms[prev].key; owner != 0 && !g.rules[owner].dead {
			g.eliminateUnitRule(owner)
			return
		}
	}
	if !g.linkMade(prev, ref) && g.alive(ref) {
		g.linkMade(ref, g.syms[ref].next)
	}
}

// Walk streams the uncompressed sequence as (terminal, runLength)
// pairs. Consecutive pairs may repeat the same terminal (runs are not
// re-coalesced across rule boundaries). Walking stops early if yield
// returns false.
func (g *Grammar) Walk(yield func(t int32, k int64) bool) {
	g.flush()
	g.walkRule(0, 1, yield)
}

func (g *Grammar) walkRule(r int32, times int64, yield func(int32, int64) bool) bool {
	for i := int64(0); i < times; i++ {
		for s := g.first(r); !g.isGuard(s); s = g.syms[s].next {
			if sy := g.syms[s]; sy.key < 0 {
				if !g.walkRule(-sy.key, sy.exp, yield) {
					return false
				}
			} else if !yield(sy.key, sy.exp) {
				return false
			}
		}
	}
	return true
}

// Expand returns the full uncompressed terminal sequence. It panics if
// the sequence exceeds max elements (pass max <= 0 for no limit); use
// Walk for streaming access to huge sequences.
func (g *Grammar) Expand(max int64) []int32 {
	if max > 0 && g.nTerms > max {
		panic(fmt.Sprintf("sequitur: expansion of %d terminals exceeds cap %d", g.nTerms, max))
	}
	out := make([]int32, 0, g.nTerms)
	g.Walk(func(t int32, k int64) bool {
		for i := int64(0); i < k; i++ {
			out = append(out, t)
		}
		return true
	})
	return out
}

// Stats describes the size of a grammar.
type Stats struct {
	Rules       int   // number of productions, including the start rule
	Symbols     int   // total symbols on all right-hand sides
	InputLen    int64 // uncompressed sequence length
	SerializedB int   // size in bytes of Serialize() output
}

// Stats returns size statistics for the grammar.
func (g *Grammar) Stats() Stats {
	g.flush()
	var st Stats
	st.InputLen = g.nTerms
	for _, r := range g.rulesInOrder() {
		st.Rules++
		st.Symbols += g.bodyLen(r)
	}
	// The layout in serialize.go: a rule count, then per rule a body
	// length and three ints per symbol.
	st.SerializedB = 4 * (1 + st.Rules + 3*st.Symbols)
	return st
}

// rulesInOrder returns the rules reachable from the start rule, start
// first, in deterministic DFS order.
func (g *Grammar) rulesInOrder() []int32 {
	var order []int32
	seen := make([]bool, len(g.rules))
	var visit func(r int32)
	visit = func(r int32) {
		if seen[r] {
			return
		}
		seen[r] = true
		order = append(order, r)
		for s := g.first(r); !g.isGuard(s); s = g.syms[s].next {
			if k := g.syms[s].key; k < 0 {
				visit(-k)
			}
		}
	}
	visit(0)
	return order
}
