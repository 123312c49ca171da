package mpi

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Deadlock diagnosis. Every blocking MPI operation registers what it
// waits on (peer/tag/comm for point-to-point, the missing members for
// collectives) in a world-level registry. A watchdog observes the
// registry together with a global progress counter: when every live
// rank is blocked and no progress has happened for a full quiescence
// window, the job is deadlocked (or, if a rank crashed, has drained as
// far as it can), and the watchdog halts it with a wait-for report
// naming the blocked operations and the dependency cycle instead of
// letting the run sit until timeout.

// BlockedOp is one rank's blocked operation, as reported.
type BlockedOp struct {
	Rank    int
	Op      string // MPI function name, e.g. "MPI_Recv"
	Detail  string // argument summary, e.g. "src=1, tag=5, comm=MPI_COMM_WORLD"
	WaitsOn []int  // world ranks whose action would unblock this op
}

func (b BlockedOp) String() string {
	return fmt.Sprintf("rank %d %s(%s)", b.Rank, b.Op, b.Detail)
}

// waitTarget describes what a blocked operation depends on. peers is
// evaluated at report time (under the owning structures' locks), so
// collective targets can report exactly the members that have not
// arrived yet.
type waitTarget struct {
	detail string
	peers  func() []int
}

func staticPeers(ranks ...int) func() []int {
	return func() []int { return ranks }
}

// recvTarget builds the wait target of a receive-like operation.
func recvTarget(c *Comm, source, tag int) *waitTarget {
	detail := fmt.Sprintf("src=%s, tag=%s, comm=%s", rankName(source), tagName(tag), c.name)
	if source == AnySource {
		g := c.group
		if c.remote != nil {
			g = c.remote
		}
		var peers []int
		for _, wr := range g {
			if wr != c.proc.rank {
				peers = append(peers, wr)
			}
		}
		return &waitTarget{detail: detail, peers: staticPeers(peers...)}
	}
	if w, err := c.resolveDest(source); err == nil {
		return &waitTarget{detail: detail, peers: staticPeers(w)}
	}
	return &waitTarget{detail: detail, peers: staticPeers()}
}

// sendTarget builds the wait target of a synchronous send.
func sendTarget(c *Comm, destWorld, dest, tag int) *waitTarget {
	return &waitTarget{
		detail: fmt.Sprintf("dest=%d, tag=%s, comm=%s", dest, tagName(tag), c.name),
		peers:  staticPeers(destWorld),
	}
}

// collTarget builds the wait target of a collective rendezvous: the
// members that have not arrived at the slot yet. The slot keys a
// member by its index in members, or by its world rank when worldKeyed
// (intercomm merge, OOB operations).
func collTarget(w *World, key collKey, members []int, self int, commName string, worldKeyed bool) *waitTarget {
	return &waitTarget{
		detail: fmt.Sprintf("comm=%s", commName),
		peers: func() []int {
			w.collMu.Lock()
			s := w.colls[key]
			w.collMu.Unlock()
			var missing []int
			if s == nil {
				// Slot already reclaimed (or not created): nothing known.
				return missing
			}
			s.mu.Lock()
			for i, wr := range members {
				k := i
				if worldKeyed {
					k = wr
				}
				if _, ok := s.contrib[k]; !ok && wr != self {
					missing = append(missing, wr)
				}
			}
			s.mu.Unlock()
			return missing
		},
	}
}

func rankName(r int) string {
	switch r {
	case AnySource:
		return "ANY_SOURCE"
	case ProcNull:
		return "PROC_NULL"
	}
	return fmt.Sprintf("%d", r)
}

func tagName(t int) string {
	if t == AnyTag {
		return "ANY_TAG"
	}
	return fmt.Sprintf("%d", t)
}

// --- registry ----------------------------------------------------------------

type blockEntry struct {
	op     string
	target *waitTarget
}

// setBlocked records that p's goroutine is about to block in op.
// Returns the deregistration func (call via defer so panics clean up).
func (w *World) setBlocked(p *Proc, target *waitTarget) func() {
	op := p.curFuncName()
	w.blkMu.Lock()
	w.blocked[p.rank] = &blockEntry{op: op, target: target}
	w.blkMu.Unlock()
	var t0 time.Time
	if w.metrics != nil {
		t0 = time.Now()
	}
	return func() {
		w.blkMu.Lock()
		delete(w.blocked, p.rank)
		w.blkMu.Unlock()
		if w.metrics != nil {
			w.metrics.col.BlockedNs.Observe(time.Since(t0).Nanoseconds())
		}
	}
}

// snapshotBlocked evaluates every registered blocked op.
func (w *World) snapshotBlocked() []BlockedOp {
	w.blkMu.Lock()
	entries := make(map[int]*blockEntry, len(w.blocked))
	for r, e := range w.blocked {
		entries[r] = e
	}
	w.blkMu.Unlock()
	out := make([]BlockedOp, 0, len(entries))
	for r, e := range entries {
		b := BlockedOp{Rank: r, Op: e.op}
		if e.target != nil {
			b.Detail = e.target.detail
			if e.target.peers != nil {
				b.WaitsOn = append([]int(nil), e.target.peers()...)
				sort.Ints(b.WaitsOn)
			}
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// blockedCount returns the number of registered blocked ranks.
func (w *World) blockedCount() int {
	w.blkMu.Lock()
	defer w.blkMu.Unlock()
	return len(w.blocked)
}

// --- DeadlockError -----------------------------------------------------------

// DeadlockError is the wait-for report produced when the job
// quiesces with blocked ranks (or times out).
type DeadlockError struct {
	// Blocked lists every blocked operation, sorted by rank.
	Blocked []BlockedOp
	// Cycle, if non-empty, is a dependency cycle among the blocked
	// ranks: Cycle[i] waits on Cycle[i+1], and the last waits on the
	// first.
	Cycle []int
	// Crashed lists ranks that died (injected crash or panic) before
	// the halt; non-empty means the blocked ranks are casualties of a
	// crash rather than a classical deadlock.
	Crashed []int
	// Timeout is set when the report came from the run timeout rather
	// than quiescence detection.
	Timeout bool
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	switch {
	case len(e.Crashed) > 0:
		fmt.Fprintf(&b, "mpi: job halted: %d rank(s) blocked on crashed rank(s) %v", len(e.Blocked), e.Crashed)
	case e.Timeout:
		fmt.Fprintf(&b, "mpi: run timed out with %d rank(s) blocked (deadlock)", len(e.Blocked))
	default:
		fmt.Fprintf(&b, "mpi: deadlock detected: %d rank(s) blocked, no progress", len(e.Blocked))
	}
	for _, op := range e.Blocked {
		fmt.Fprintf(&b, "\n  rank %d: %s(%s) waits on %s", op.Rank, op.Op, op.Detail, ranksOrNone(op.WaitsOn))
	}
	if len(e.Cycle) > 0 {
		b.WriteString("\n  cycle: ")
		byRank := map[int]BlockedOp{}
		for _, op := range e.Blocked {
			byRank[op.Rank] = op
		}
		for i, r := range e.Cycle {
			if i > 0 {
				b.WriteString(" ← ")
			}
			if op, ok := byRank[r]; ok {
				fmt.Fprintf(&b, "rank %d %s(%s)", r, op.Op, op.Detail)
			} else {
				fmt.Fprintf(&b, "rank %d", r)
			}
		}
		fmt.Fprintf(&b, " ← rank %d", e.Cycle[0])
	}
	return b.String()
}

func ranksOrNone(rs []int) string {
	if len(rs) == 0 {
		return "(unknown)"
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%d", r)
	}
	return "rank " + strings.Join(parts, ", ")
}

// findCycle looks for a dependency cycle in the wait-for graph.
func findCycle(blocked []BlockedOp) []int {
	adj := map[int][]int{}
	for _, b := range blocked {
		adj[b.Rank] = b.WaitsOn
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[int]int{}
	var stack []int
	var cycle []int
	var dfs func(r int) bool
	dfs = func(r int) bool {
		color[r] = gray
		stack = append(stack, r)
		for _, nxt := range adj[r] {
			if _, blockedToo := adj[nxt]; !blockedToo {
				continue // peer not blocked: no edge in the wait-for graph
			}
			switch color[nxt] {
			case white:
				if dfs(nxt) {
					return true
				}
			case gray:
				// Found: slice the stack from nxt's position.
				for i, s := range stack {
					if s == nxt {
						cycle = append(cycle, stack[i:]...)
						return true
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[r] = black
		return false
	}
	ranks := make([]int, 0, len(adj))
	for r := range adj {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		if color[r] == white {
			stack = stack[:0]
			if dfs(r) {
				return cycle
			}
		}
	}
	return nil
}

// diagnose builds the full report from the current registry state.
func (w *World) diagnose(timeout bool) *DeadlockError {
	blocked := w.snapshotBlocked()
	e := &DeadlockError{Blocked: blocked, Cycle: findCycle(blocked), Timeout: timeout}
	w.crashMu.Lock()
	e.Crashed = append([]int(nil), w.crashed...)
	w.crashMu.Unlock()
	sort.Ints(e.Crashed)
	return e
}

// --- watchdog ----------------------------------------------------------------

// Quiescence parameters: the watchdog declares a halt only after the
// "all live ranks blocked, zero progress" condition holds continuously
// for the full window, which makes a runnable-but-unscheduled
// goroutine (possible under -race or tiny GOMAXPROCS) vanishingly
// unlikely to be misread as deadlock. When every blocked operation
// waits on crashed ranks, directly or through other blocked operations
// that do, no goroutine can unblock any of them, and crashQuietTicks
// ticks without progress suffice.
const (
	watchdogTick    = 5 * time.Millisecond
	quiesceWindow   = 120 * time.Millisecond
	crashQuietTicks = 2
	revocationGrace = 10 * time.Second
)

// watchdog runs until stop closes, checking for quiescence. On
// detection it revokes the world with a diagnosis so every blocked
// rank unwinds promptly.
func (w *World) watchdog(stop <-chan struct{}) {
	ticker := time.NewTicker(watchdogTick)
	defer ticker.Stop()
	var quietSince time.Time
	var quietProgress int64
	var quietTicks int
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if w.revoked.Load() {
			return
		}
		live := w.n - int(w.finished.Load())
		prog := w.progress.Load()
		if live <= 0 || w.blockedCount() < live {
			quietSince = time.Time{}
			continue
		}
		if quietSince.IsZero() || prog != quietProgress {
			quietSince = time.Now()
			quietProgress = prog
			quietTicks = 0
			continue
		}
		quietTicks++
		if time.Since(quietSince) < quiesceWindow && (quietTicks < crashQuietTicks || !w.blockedOnCrashed()) {
			continue
		}
		// Re-verify under the same conditions before acting.
		if w.progress.Load() != quietProgress || w.blockedCount() < w.n-int(w.finished.Load()) {
			quietSince = time.Time{}
			continue
		}
		w.revoke(w.diagnose(false))
		return
	}
}

// blockedOnCrashed reports whether a rank has crashed and every blocked
// operation is hopeless (see hopeless).
func (w *World) blockedOnCrashed() bool {
	w.crashMu.Lock()
	crashed := slices.Clone(w.crashed)
	w.crashMu.Unlock()
	return len(crashed) > 0 && hopeless(crashed, w.snapshotBlocked())
}

// hopeless reports whether every operation in ops waits on ranks that
// crashed, directly or through operations in ops that do: none of them
// can ever be woken. An operation that names no rank it waits on (a
// rank's own wait, reported as "(unknown)") or waits on a cycle of
// live ranks makes it false.
func hopeless(crashed []int, ops []BlockedOp) bool {
	// Walk back from the crashed ranks: an operation is hopeless once
	// every rank it waits on is crashed or blocked hopelessly.
	pending := make(map[int]int, len(ops)) // rank -> waited-on ranks not yet hopeless
	waiters := make(map[int][]int)         // rank -> blocked ranks waiting on it
	for _, op := range ops {
		if len(op.WaitsOn) == 0 {
			return false
		}
		waitsOn := slices.Clone(op.WaitsOn)
		slices.Sort(waitsOn)
		waitsOn = slices.Compact(waitsOn)
		pending[op.Rank] = len(waitsOn)
		for _, r := range waitsOn {
			waiters[r] = append(waiters[r], op.Rank)
		}
	}
	done := make(map[int]bool, len(crashed)+len(ops))
	queue := slices.Clone(crashed)
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		if done[r] {
			continue
		}
		done[r] = true
		for _, b := range waiters[r] {
			if pending[b]--; pending[b] == 0 {
				queue = append(queue, b)
			}
		}
	}
	for _, op := range ops {
		if !done[op.Rank] {
			return false
		}
	}
	return true
}

// --- revocation --------------------------------------------------------------

// revoke halts the job: the first cause wins, every blocked operation
// is woken, and any operation entered afterwards unwinds immediately.
func (w *World) revoke(cause error) {
	w.revMu.Lock()
	if w.revCause != nil {
		w.revMu.Unlock()
		return
	}
	w.revCause = cause
	w.revMu.Unlock()
	w.revoked.Store(true)
	// Wake every rank's completion cond...
	for _, p := range w.procs {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
	// ...and every collective slot's.
	w.collMu.Lock()
	slots := make([]*collSlot, 0, len(w.colls))
	for _, s := range w.colls {
		slots = append(slots, s)
	}
	w.collMu.Unlock()
	for _, s := range slots {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// revokeCause returns the halt cause, if any.
func (w *World) revokeCause() error {
	w.revMu.Lock()
	defer w.revMu.Unlock()
	return w.revCause
}

// checkRevoked unwinds the calling rank goroutine if the job halted.
func (w *World) checkRevoked() {
	if w.revoked.Load() {
		panic(jobRevoked{})
	}
}

// goBackground spawns a runtime helper goroutine (non-blocking
// collectives, OOB operations) that swallows revocation panics: when
// the job halts mid-operation, the helper just exits.
func (p *Proc) goBackground(body func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(jobRevoked); ok && p.world.revoked.Load() {
					return
				}
				panic(r)
			}
		}()
		body()
	}()
}

// noteCrash records a dead rank for the diagnosis report.
func (w *World) noteCrash(rank int) {
	w.crashMu.Lock()
	w.crashed = append(w.crashed, rank)
	w.crashMu.Unlock()
}
