package mpi

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcrepro/pilgrim/internal/metrics"
	"github.com/hpcrepro/pilgrim/internal/mpispec"
)

// World is one simulated MPI job: n ranks, a message router, the
// rendezvous state for collectives, and the failure-handling state
// (revocation, blocked-op registry, crash bookkeeping).
type World struct {
	n     int
	procs []*Proc

	mbMu  sync.Mutex
	boxes map[mbKey]*mailbox

	collMu sync.Mutex
	colls  map[collKey]*collSlot

	ctxSeq atomic.Int64
	seed   int64

	// progress counts globally visible events (call entries, message
	// posts, completions, rendezvous arrivals); the watchdog reads it
	// to distinguish a quiescent (deadlocked) job from a slow one.
	progress atomic.Int64
	// finished counts rank goroutines that have returned or unwound.
	finished atomic.Int64

	// revocation: once revCause is set, every blocking operation wakes
	// and unwinds with ErrRevoked instead of hanging.
	revoked  atomic.Bool
	revMu    sync.Mutex
	revCause error

	// blocked-op registry for deadlock diagnosis.
	blkMu   sync.Mutex
	blocked map[int]*blockEntry

	// ranks that died (injected crash or panic) before the halt.
	crashMu sync.Mutex
	crashed []int

	// metrics, when non-nil, publishes runtime self-observability
	// counters (messages, bytes, collectives, blocked time, faults).
	metrics *runMetrics
}

type mbKey struct {
	ctx  int64
	dest int // world rank
}

type collKey struct {
	ctx int64
	seq int64
	oob bool
}

// Proc is one simulated MPI process. All MPI operations hang off it;
// it is confined to the goroutine running the rank's body (the runtime
// itself synchronizes cross-rank effects).
type Proc struct {
	rank  int
	world *World

	interceptor mpispec.Interceptor

	mu   sync.Mutex
	cond *sync.Cond // broadcast whenever any of this proc's requests completes

	clock         atomic.Int64 // virtual time, ns
	rng           *rand.Rand
	computeFactor float64

	// fault injection (rank goroutine only).
	faults    *faultState
	msgDelay  int64 // armed delay for the next posted envelope
	msgDrop   int   // armed drop count for upcoming envelopes
	callCount int64 // 1-based MPI call counter

	// curFunc is the FuncID of the MPI call currently executing,
	// read by the deadlock registry from the watchdog goroutine.
	curFunc atomic.Int32

	nextAddr   uint64
	nextStack  uint64
	nextHandle int64

	commsMu sync.Mutex
	comms   map[int64]*Comm // handle -> comm, for OOB lookups

	oobMu      sync.Mutex
	oobPending map[int64]*oobOp
	oobSeq     int64

	worldComm *Comm
	selfComm  *Comm

	initialized bool
	finalized   bool
}

type oobOp struct {
	done   bool
	result int32
}

// Options configures a simulated run.
type Options struct {
	// Seed drives the per-rank noise model; runs with equal seeds see
	// identical virtual timing. Zero means seed 1.
	Seed int64
	// Timeout aborts a deadlocked run. Zero means 2 minutes.
	Timeout time.Duration
	// Interceptors, if non-nil, is indexed by rank and attached before
	// the body runs (so MPI_Init is already traced).
	Interceptors []mpispec.Interceptor
	// ComputeFactor makes Proc.Compute burn real CPU time: a call to
	// Compute(d) busy-spins for d*ComputeFactor nanoseconds of wall
	// time in addition to advancing the virtual clock. Zero keeps
	// compute purely virtual (the default; size experiments need no
	// real work). Overhead experiments set it so tracing cost is
	// measured against a realistic application denominator.
	ComputeFactor float64
	// FaultPlan, if non-nil, injects deterministic failures (crash a
	// rank at call N, delay/drop a message, fail a collective). See
	// the Fault type for semantics.
	FaultPlan *FaultPlan
	// Metrics, if non-nil, receives runtime self-observability
	// counters: per-rank message/byte/collective counts, blocked-time
	// histograms, fault events, and classified rank failures.
	// pilgrim.RunSim sets this automatically from its own collector.
	Metrics *metrics.Collector
}

// Run executes body as an SPMD program on n simulated ranks and blocks
// until every rank returns. A panic in any rank aborts the run and is
// returned as an error.
func Run(n int, body func(p *Proc)) error {
	return RunOpt(n, Options{}, body)
}

// RunOpt is Run with explicit options. On failure the returned error
// is a *RunError carrying the precipitating cause (crash, abort,
// panic, or deadlock diagnosis) plus every rank's individual error;
// ranks that were blocked when the job halted unwind with errors
// wrapping ErrRevoked rather than being silently abandoned.
func RunOpt(n int, opts Options, body func(p *Proc)) error {
	if n <= 0 {
		return fmt.Errorf("mpi: invalid world size %d", n)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	w := &World{
		n:       n,
		boxes:   make(map[mbKey]*mailbox),
		colls:   make(map[collKey]*collSlot),
		seed:    seed,
		blocked: make(map[int]*blockEntry),
		metrics: newRunMetrics(opts.Metrics, n),
	}
	w.ctxSeq.Store(hDynamicBase) // context ids share the reserved space above predefined handles
	w.procs = make([]*Proc, n)
	worldGroup := make([]int, n)
	for i := range worldGroup {
		worldGroup[i] = i
	}
	for i := 0; i < n; i++ {
		p := &Proc{
			rank:          i,
			world:         w,
			computeFactor: opts.ComputeFactor,
			rng:           rand.New(rand.NewSource(seed + int64(i)*7919)),
			// Address-space bases diverge per rank, as real heaps do
			// (ASLR, allocation history): absolute addresses are
			// rank-specific, symbolic segment ids are not.
			nextAddr:   0x10000 + uint64(i)*0x0010_0000,
			nextStack:  0x7f00_0000_0000 + uint64(i)*0x0100_0000,
			nextHandle: hDynamicBase,
			comms:      make(map[int64]*Comm),
			oobPending: make(map[int64]*oobOp),
		}
		p.cond = sync.NewCond(&p.mu)
		p.worldComm = &Comm{proc: p, handle: mpispec.CommWorldHandle, ctx: mpispec.CommWorldHandle, group: worldGroup, myRank: i, name: "MPI_COMM_WORLD"}
		p.selfComm = &Comm{proc: p, handle: mpispec.CommSelfHandle, ctx: mpispec.CommSelfHandle, group: []int{i}, myRank: 0, name: "MPI_COMM_SELF"}
		p.comms[mpispec.CommWorldHandle] = p.worldComm
		p.comms[mpispec.CommSelfHandle] = p.selfComm
		if opts.Interceptors != nil && i < len(opts.Interceptors) {
			p.interceptor = opts.Interceptors[i]
		}
		p.faults = newFaultState(opts.FaultPlan, i)
		w.procs[i] = p
	}

	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 2 * time.Minute
	}

	var errMu sync.Mutex
	rankErrs := make(map[int]error)
	record := func(rank int, err error) {
		errMu.Lock()
		rankErrs[rank] = err
		errMu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer w.finished.Add(1)
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				switch v := r.(type) {
				case jobRevoked:
					record(p.rank, fmt.Errorf("mpi: rank %d: %w", p.rank, ErrRevoked))
				case *CrashError:
					// Injected crash: the rank dies, but the job is NOT
					// revoked — survivors drain deterministically until
					// they finish or block on the dead rank, at which
					// point the watchdog halts the run with a diagnosis.
					record(p.rank, v)
					w.noteCrash(p.rank)
				case *AbortError:
					record(p.rank, v)
					w.revoke(v)
				default:
					buf := make([]byte, 8192)
					buf = buf[:runtime.Stack(buf, false)]
					pe := &PanicError{Rank: p.rank, Value: v, Stack: string(buf)}
					record(p.rank, pe)
					w.noteCrash(p.rank)
					w.revoke(pe)
				}
			}()
			body(p)
		}(w.procs[i])
	}

	stopWatch := make(chan struct{})
	go w.watchdog(stopWatch)
	defer close(stopWatch)

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		// Timed out before the watchdog could decide (e.g. a rank
		// stuck outside MPI): diagnose whatever is blocked, halt, and
		// wait a bounded grace period for the unwound ranks.
		w.revoke(w.diagnose(true))
		select {
		case <-done:
		case <-time.After(revocationGrace):
		}
	}

	abandoned := n - int(w.finished.Load())
	cause := w.revokeCause()
	errMu.Lock()
	errs := make(map[int]error, len(rankErrs))
	for r, e := range rankErrs {
		errs[r] = e
	}
	errMu.Unlock()
	if cause == nil && len(errs) == 0 && abandoned == 0 {
		return nil
	}
	if cause == nil {
		// A rank failed without triggering revocation (e.g. a crash
		// whose survivors all completed): the lowest failed rank's
		// error is the cause.
		for _, r := range (&RunError{Ranks: errs}).FailedRanks() {
			cause = errs[r]
			break
		}
	}
	runErr := &RunError{Cause: cause, Ranks: errs, Abandoned: abandoned}
	if w.metrics != nil {
		w.metrics.recordRunFailure(runErr)
	}
	return runErr
}

// Rank returns the world rank of this process.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.n }

// World returns the MPI_COMM_WORLD communicator of this process.
func (p *Proc) World() *Comm { return p.worldComm }

// Self returns the MPI_COMM_SELF communicator.
func (p *Proc) Self() *Comm { return p.selfComm }

// SetInterceptor attaches the tracing hook (nil detaches). Typically
// set via Options.Interceptors so MPI_Init is captured too.
func (p *Proc) SetInterceptor(ic mpispec.Interceptor) { p.interceptor = ic }

// Interceptor returns the attached hook, if any.
func (p *Proc) Interceptor() mpispec.Interceptor { return p.interceptor }

// Now returns the rank's virtual clock in nanoseconds.
func (p *Proc) Now() int64 { return p.clock.Load() }

// CallCount returns the number of MPI calls the rank has entered.
func (p *Proc) CallCount() int64 { return p.callCount }

// curFuncName names the MPI call currently executing on this rank.
func (p *Proc) curFuncName() string {
	return mpispec.FuncID(p.curFunc.Load()).Name()
}

// Compute advances the rank's virtual clock by d nanoseconds,
// simulating local computation between MPI calls. With
// Options.ComputeFactor set, it also burns the proportional amount of
// real CPU time, so wall-clock overhead measurements have a realistic
// application denominator.
func (p *Proc) Compute(d int64) {
	if d <= 0 {
		return
	}
	p.clock.Add(d)
	if p.computeFactor > 0 {
		deadline := time.Now().Add(time.Duration(float64(d) * p.computeFactor))
		// Spin, but yield periodically so high ComputeFactor ranks
		// don't starve other rank goroutines on small GOMAXPROCS, and
		// notice a revoked job without waiting for the next MPI call.
		for i := 0; time.Now().Before(deadline); i++ {
			if i&1023 == 0 {
				p.world.checkRevoked()
				runtime.Gosched()
			}
		}
	}
}

// advanceClock adds a modeled cost with multiplicative noise.
func (p *Proc) advanceClock(base int64) {
	if base <= 0 {
		base = 1
	}
	noise := 1.0 + 0.1*p.rng.Float64()
	p.clock.Add(int64(float64(base) * noise))
}

// raiseClock moves the clock forward to at least t.
func (p *Proc) raiseClock(t int64) {
	for {
		cur := p.clock.Load()
		if cur >= t {
			return
		}
		if p.clock.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Cost model constants (virtual nanoseconds).
const (
	costLatency   = 1500 // p2p latency
	costPerByte   = 1    // ~1GB/s modeled bandwidth, per byte cost in tenths handled below
	costCallEntry = 120  // fixed software overhead per MPI call
)

func transferCost(bytes int) int64 {
	return costLatency + int64(bytes)/10
}

// newHandle returns the next per-process object handle.
func (p *Proc) newHandle() int64 {
	h := p.nextHandle
	p.nextHandle++
	return h
}

// Alloc simulates a heap allocation of n bytes, reporting it to the
// interceptor like an intercepted malloc.
func (p *Proc) Alloc(n int) *Buffer { return p.allocDev(n, 0) }

// AllocDevice simulates a device allocation (cudaMalloc-style) on the
// given device id (>= 1).
func (p *Proc) AllocDevice(n int, device int32) *Buffer { return p.allocDev(n, device) }

func (p *Proc) allocDev(n int, device int32) *Buffer {
	if n < 0 {
		panic("mpi: negative allocation")
	}
	addr := p.nextAddr
	p.nextAddr += uint64(n) + 64 // pad so allocations never abut
	b := &Buffer{proc: p, addr: addr, data: make([]byte, n), device: device}
	if ic := p.interceptor; ic != nil {
		ic.MemAlloc(addr, uint64(n), device)
	}
	return b
}

// Realloc simulates realloc: the buffer moves to a fresh address with
// its prefix preserved, and the interceptor sees the free and the new
// allocation, exactly as an intercepted realloc would (§3.3.3).
func (p *Proc) Realloc(b *Buffer, n int) *Buffer {
	if b == nil || b.freed {
		return p.Alloc(n)
	}
	nb := p.allocDev(n, b.device)
	copy(nb.data, b.data)
	b.Free()
	return nb
}

// StackVar returns a pointer to simulated stack memory of n bytes: the
// allocation is NOT reported to the interceptor, exercising the
// tracer's conservative fallback for unknown addresses (§3.3.3).
func (p *Proc) StackVar(n int) Ptr {
	addr := p.nextStack
	p.nextStack += uint64(n) + 16
	return Ptr{addr: addr, data: make([]byte, n)}
}

// registerComm adds a comm to the handle registry (for OOB lookups).
func (p *Proc) registerComm(c *Comm) {
	p.commsMu.Lock()
	p.comms[c.handle] = c
	p.commsMu.Unlock()
}

func (p *Proc) lookupComm(handle int64) *Comm {
	p.commsMu.Lock()
	defer p.commsMu.Unlock()
	return p.comms[handle]
}

// icall wraps an MPI call body with interception: Pre sees the input
// argument values, body executes the call and fills output values in
// place, Post sees the completed record. It is also where the fault
// layer hooks in: a revoked job unwinds the rank here, and the rank's
// fault plan is consulted against its call counter.
func (p *Proc) icall(id mpispec.FuncID, args []mpispec.Value, body func()) {
	p.world.checkRevoked()
	p.world.progress.Add(1)
	p.callCount++
	p.curFunc.Store(int32(id))
	p.checkFaults(p.callCount)
	p.advanceClock(costCallEntry)
	ic := p.interceptor
	if ic == nil {
		body()
		p.advanceClock(costCallEntry)
		return
	}
	rec := &mpispec.CallRecord{Func: id, Args: args, TStart: p.clock.Load(), Rank: p.rank}
	ic.Pre(rec)
	body()
	// Exit-path software cost, so every call has a nonzero duration.
	p.advanceClock(costCallEntry)
	rec.TEnd = p.clock.Load()
	ic.Post(rec)
}
