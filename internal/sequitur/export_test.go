package sequitur

import "unsafe"

// What the external test package needs of the loop cursor: whether it
// is armed, whether Append(t) would complete an iteration, and
// CheckInvariants' cursor check on its own, which (unlike every other
// reader) does not flush.

func (g *Grammar) CursorArmed() bool  { return g.cur != nilIdx }
func (g *Grammar) CheckCursor() error { return g.checkCursor() }

func (g *Grammar) CursorCompletesOn(t int32) bool {
	if g.cur == nilIdx {
		return false
	}
	sy := g.syms[g.cur]
	if sy.key != t || int64(g.rep)+1 != sy.exp || !g.isGuard(sy.next) {
		return false
	}
	for i := len(g.stack) - 2; i >= 0; i -= 2 {
		ref := g.syms[g.stack[i]]
		if int64(g.stack[i+1])+1 != ref.exp || !g.isGuard(ref.next) {
			return false
		}
	}
	return true
}

// LoopBody is alloc_test.go's flat 13-symbol iteration.
var LoopBody = loopBody

// DigramFingerprint is the fingerprint the digram index keeps for the
// digram t1^e1 t2^e2; its low bits are the entry's home slot.
func DigramFingerprint(t1 int32, e1 int64, t2 int32, e2 int64) uint32 {
	return uint32(digram{e1: e1, e2: e2, k1: t1, k2: t2}.hash())
}

// SlabBytes returns the bytes g's three slabs hold, capacity times
// entry size: symbols, rules and the digram index.
func (g *Grammar) SlabBytes() (syms, rules, index int) {
	return cap(g.syms) * int(unsafe.Sizeof(symbol{})),
		cap(g.rules) * int(unsafe.Sizeof(rule{})),
		cap(g.index) * int(unsafe.Sizeof(digramEntry{}))
}
