package sequitur

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
	return sy.key == t && sy.exp == 1 && g.isGuard(sy.next)
}

// LoopBody is alloc_test.go's flat 13-symbol iteration.
var LoopBody = loopBody
