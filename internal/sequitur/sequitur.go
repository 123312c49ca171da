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
	nIdx  int32         // occupied index slots

	// Slots freed while an append cascades go on pendSyms and are only
	// reusable once AppendRun returns: cascades hold handles to symbols
	// and rules they have already removed and test alive/dead on them.
	freeSyms, pendSyms int32
	freeRules          int32
	cur, rep           int32   // loop cursor: the terminal of R's expansion due next (see arm) or nilIdx, and its repetitions complete
	stack              []int32 // the cursor's frames while armed; eliminateUnitRule's snapshots during an append
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
		if (int(g.nIdx)+1)*2 > len(g.index) {
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
		if sy := &g.syms[g.cur]; k == 1 && sy.key == t {
			if sy.exp == 1 && g.syms[sy.next].key >= 0 {
				g.cur = sy.next // the next terminal of the same body
			} else {
				g.step()
			}
			return
		}
		g.flush()
	}
	run := g.syms[0].prev
	if !g.appendSlow(t, k) && k == 1 && g.syms[run].key < 0 && g.syms[run].exp > 1 {
		g.arm(run, t)
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
// next iteration arrives one terminal at a time; appendSlow rebuilds
// R's bodies out of temporary rules, finds they are R's, and tears them
// down again to reach R^(j+1). While the arrivals spell R's expansion
// the cursor only follows them: cur is the terminal due next and rep
// how many of its repetitions are complete, and the stack holds one
// frame per rule reference on the path from R's body down to cur's
// body: the reference and how many of its repetitions are complete.
// The terminals seen so far are implicit (R's expansion up to the
// cursor), and the grammar is untouched. The last one bumps the run
// (completeLoop); anything else replays them through appendSlow
// (flush), as does every reader of the grammar, so what an observer
// sees is what appendSlow alone would have built. The cursor arms only
// on an iteration verify has proved to be a no-op but for the run's
// exponent (DESIGN.md, "Loop cursor", has the argument).

// maxRepeat bounds the exponents inside an expansion the cursor
// follows: verify makes a lookup per repetition of a run it models, and
// the frames count repetitions in int32.
const maxRepeat = 256

// maxHold bounds the length of R's expansion, so that a flush copies
// what the cursor holds onto the Go stack and the grammar keeps no
// buffer for it.
const maxHold = 1024

// arm sets the cursor after an append of terminal t that restructured
// nothing and left the start rule ending R^j t (run is R^j, j > 1: R has
// just repeated, which on a loop it has and on noise it seldom has), if
// R's expansion begins with t and verify proves the iteration a no-op.
// The cursor then stands past t, which stays linked until the iteration
// completes or flushes.
func (g *Grammar) arm(run, t int32) {
	r := -g.syms[run].key
	s := g.first(r)
	for g.syms[s].key < 0 {
		s = g.first(-g.syms[s].key)
	}
	if g.syms[s].key != t || !g.verify(run, run) {
		return
	}
	g.stack = g.stack[:0]
	g.cur, g.rep = g.descend(g.first(r)), 0
	g.step()
}

// descend pushes a frame, with no repetition complete, for each rule
// reference on the leftmost path from body symbol s and returns the
// terminal the path ends at.
func (g *Grammar) descend(s int32) int32 {
	for k := g.syms[s].key; k < 0; k = g.syms[s].key {
		g.stack = append(g.stack, s, 0)
		s = g.first(-k)
	}
	return s
}

// step moves the cursor past one terminal equal to cur: another
// repetition of cur, or on to the next terminal of R's expansion,
// closing the bodies and repetitions that terminal finishes. Past R's
// last terminal the iteration is complete.
func (g *Grammar) step() {
	s := g.cur
	if n := g.rep + 1; int64(n) < g.syms[s].exp {
		g.rep = n
		return
	}
	g.rep = 0
	for {
		if next := g.syms[s].next; !g.isGuard(next) {
			g.cur = g.descend(next)
			return
		}
		top := len(g.stack) - 2
		if top < 0 {
			g.completeLoop()
			return
		}
		ref := g.stack[top]
		if n := g.stack[top+1] + 1; int64(n) < g.syms[ref].exp {
			g.stack[top+1] = n
			g.cur = g.descend(g.first(-g.syms[ref].key))
			return
		}
		g.stack = g.stack[:top]
		s = ref
	}
}

// completeLoop ends an iteration the cursor followed to its last
// terminal. The slow path's last step is substitute(·, R) after R^j,
// whose linkMade merges the run: R^(j+1), then the digram on its left
// re-checked, which is all that is done here (a first terminal linked
// by arm is unlinked first). If that check restructures nothing, the
// grammar is the one the iteration started from with the exponent
// bumped, and the cursor re-arms for the next iteration, which the
// first one's proof covers except for the lookups (R^(j+1), y).
func (g *Grammar) completeLoop() {
	run := g.syms[0].prev
	if g.syms[run].key >= 0 {
		r1 := run
		run = g.syms[r1].prev
		g.unlink(r1)
		g.freeSym(r1)
	}
	z := g.syms[run].prev
	g.removeDigram(z)
	g.syms[run].exp++
	changed := g.linkMade(z, run)
	g.recycle()
	r := -g.syms[run].key
	if changed || !g.leftMisses(modelSym{key: g.syms[run].key, exp: g.syms[run].exp}, r, nil) {
		g.cur = nilIdx
		return
	}
	g.cur = g.descend(g.first(r))
}

// flush clears the cursor and appends the terminals it was holding the
// ordinary way. They are copied out first (appendSlow rewrites the
// bodies they are read from), onto the Go stack: a buffer of 64 for
// the usual flush, as of a grammar read mid-iteration, else one of
// maxHold in flushLong.
func (g *Grammar) flush() {
	if g.cur == nilIdx {
		return
	}
	if g.holding() > 64 {
		g.flushLong()
		return
	}
	var buf [64]int32
	g.replay(g.hold(buf[:0]))
}

// flushLong is flush with room for everything arm lets the cursor
// hold. It is a function of its own so that only a long flush grows
// the caller's goroutine stack by the buffer.
//
//go:noinline
func (g *Grammar) flushLong() {
	var buf [maxHold]int32
	g.replay(g.hold(buf[:0]))
}

// replay clears the cursor and appends held the ordinary way.
func (g *Grammar) replay(held []int32) {
	g.cur, g.stack = nilIdx, g.stack[:0]
	for _, t := range held {
		g.appendSlow(t, 1)
	}
}

// hold appends to dst the terminals the armed cursor holds: R's
// expansion up to it, past the first if arm linked it.
func (g *Grammar) hold(dst []int32) []int32 {
	run := g.syms[0].prev
	linked := g.syms[run].key >= 0
	if linked {
		run = g.syms[run].prev
	}
	body := -g.syms[run].key
	for i := 0; i < len(g.stack); i += 2 {
		ref := g.stack[i]
		dst = g.pushBefore(dst, body, ref)
		dst = g.pushExpansion(dst, ref, int64(g.stack[i+1]))
		body = -g.syms[ref].key
	}
	dst = g.pushBefore(dst, body, g.cur)
	dst = g.pushExpansion(dst, g.cur, int64(g.rep))
	if linked {
		dst = dst[1:]
	}
	return dst
}

// holding returns how many terminals hold would append.
func (g *Grammar) holding() int64 {
	run := g.syms[0].prev
	n := int64(0)
	if g.syms[run].key >= 0 {
		run, n = g.syms[run].prev, -1
	}
	body := -g.syms[run].key
	for i := 0; i < len(g.stack); i += 2 {
		ref := g.stack[i]
		n += g.lenBefore(body, ref) + g.expansionLen(ref)*int64(g.stack[i+1])
		body = -g.syms[ref].key
	}
	return n + g.lenBefore(body, g.cur) + int64(g.rep)
}

// lenBefore returns the length of the expansions of rule r's body
// symbols before stop.
func (g *Grammar) lenBefore(r, stop int32) int64 {
	n := int64(0)
	for s := g.first(r); s != stop; s = g.syms[s].next {
		n += g.expansionLen(s) * g.syms[s].exp
	}
	return n
}

// expansionLen returns the length of one repetition of s's expansion.
func (g *Grammar) expansionLen(s int32) int64 {
	if k := g.syms[s].key; k < 0 {
		return g.lenBefore(-k, g.rules[-k].guard)
	}
	return 1
}

// pushBefore appends the expansions of rule r's body symbols before stop.
func (g *Grammar) pushBefore(dst []int32, r, stop int32) []int32 {
	for s := g.first(r); s != stop; s = g.syms[s].next {
		dst = g.pushExpansion(dst, s, g.syms[s].exp)
	}
	return dst
}

// pushExpansion appends times copies of the expansion of symbol s.
func (g *Grammar) pushExpansion(dst []int32, s int32, times int64) []int32 {
	k := g.syms[s].key
	for ; times > 0; times-- {
		if k >= 0 {
			dst = append(dst, k)
			continue
		}
		for c := g.first(-k); !g.isGuard(c); c = g.syms[c].next {
			dst = g.pushExpansion(dst, c, g.syms[c].exp)
		}
	}
	return dst
}

// verify reports whether appendSlow, fed R's expansion after the run
// R^j (run) that ends the start rule, would leave R^(j+1) and the rest
// of the grammar as it found them. It replays the digram lookups that
// path makes on a model of the tail it builds and requires each to miss
// but those that are meant to match a body's head; own is a symbol
// whose index entry is the tail's own (arm's linked first terminal
// made it), or nilIdx.
func (g *Grammar) verify(run, own int32) bool {
	var m cursorModel
	m.g, m.own, m.left = g, own, maxHold
	m.tail[0] = modelSym{key: g.syms[run].key, exp: g.syms[run].exp}
	m.n = 1
	return m.rule(-g.syms[run].key)
}

// leftMisses reports whether no digram (u, y) is indexed or a pair of
// tail, for y each run prefix of a symbol on rule r's leftmost path: the
// symbols that stand right after u while r's expansion is appended
// after it.
func (g *Grammar) leftMisses(u modelSym, r int32, tail []modelSym) bool {
	for s := g.first(r); ; s = g.first(-g.syms[s].key) {
		sy := &g.syms[s]
		for e := int64(1); e <= sy.exp; e++ {
			v := modelSym{key: sy.key, exp: e}
			if _, _, ok := g.find(digram{e1: u.exp, e2: e, k1: u.key, k2: sy.key}); ok || onTail(tail, u, v) {
				return false
			}
		}
		if sy.key >= 0 {
			return true
		}
	}
}

// cursorModel is verify's model of the start rule's tail while R's
// expansion arrives: the run R^j, then one symbol for each body being
// built — its completed first symbol, a rule made from its head, or the
// completed repetitions of a run. The lookup the slow path makes is
// always of the model's last two symbols.
type cursorModel struct {
	g    *Grammar
	own  int32
	n    int
	left int64 // terminals R's expansion may have beyond those modelled
	tail [24]modelSym
}

// modelSym is a symbol of the model; exp 0 marks a rule the iteration
// made, which occurs only at the tail and at the head of the body it
// was cut from, after that body's guard.
type modelSym struct {
	exp int64
	key int32
}

// misses reports whether the lookup of the model's last digram misses:
// it is not indexed, not elsewhere on the tail, and not two equal
// symbols (which merge).
func (m *cursorModel) misses() bool {
	u, v := m.tail[m.n-2], m.tail[m.n-1]
	if u.exp == 0 || v.exp == 0 {
		return true
	}
	if u.key == v.key || onTail(m.tail[:m.n-1], u, v) {
		return false
	}
	pos, _, ok := m.g.find(digram{e1: u.exp, e2: v.exp, k1: u.key, k2: v.key})
	return !ok || m.g.index[pos].sym == m.own
}

// onTail reports whether u v are two adjacent symbols of tail.
func onTail(tail []modelSym, u, v modelSym) bool {
	for i := 0; i+1 < len(tail); i++ {
		if tail[i] == u && tail[i+1] == v {
			return true
		}
	}
	return false
}

// sym models appending the expansion of body symbol s after the tail,
// which leaves s on it. head says the last lookup, of the tail's last
// symbol and s, is a body's head and meant to match.
func (m *cursorModel) sym(s int32, head bool) bool {
	sy := &m.g.syms[s]
	if sy.exp > maxRepeat {
		return false
	}
	if sy.key >= 0 {
		if m.left -= sy.exp; m.left < 0 || m.n == len(m.tail) {
			return false
		}
		m.tail[m.n] = modelSym{key: sy.key}
		m.n++
	} else {
		left := m.left
		if !m.rule(-sy.key) {
			return false
		}
		if m.left -= (left - m.left) * (sy.exp - 1); m.left < 0 {
			return false
		}
	}
	for e := int64(1); ; e++ {
		m.tail[m.n-1].exp = e
		if e == sy.exp {
			return head || m.misses()
		}
		if !m.misses() {
			return false
		}
		// A rule's next repetition is built after this one; its lookups
		// are the first one's but for those on the left, of this run.
		if sy.key < 0 && !m.g.leftMisses(m.tail[m.n-1], -sy.key, m.tail[:m.n]) {
			return false
		}
	}
}

// rule models appending rule r's expansion after the tail, which leaves
// a reference to r on it: its first symbol, its second (the two are
// r's head), then each further symbol after the rule made of the ones
// before it, and at the last r's whole body matched.
func (m *cursorModel) rule(r int32) bool {
	g := m.g
	base := m.n
	s := g.first(r)
	if !m.sym(s, false) {
		return false
	}
	for s = g.syms[s].next; ; {
		if !m.sym(s, true) {
			return false
		}
		m.n = base + 1
		if s = g.syms[s].next; g.isGuard(s) {
			break
		}
		m.tail[base] = modelSym{}
	}
	m.tail[base] = modelSym{key: -r, exp: 1}
	return true
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
	base := len(g.stack)
	for u := g.rules[r].useHead; u != nilIdx; u = g.syms[u].useNext {
		g.stack = append(g.stack, u)
	}
	for i, end := base, len(g.stack); i < end; i++ {
		u := g.stack[i]
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
	g.stack = g.stack[:base]
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
