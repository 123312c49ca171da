// The finalize walk (§3.5), every route's one implementation: rank
// snapshots arrive in batches, in rank order, and per batch the walk
// folds their tables into the global CST, relabels each grammar
// against it (§3.5.1), keys and deduplicates the grammars, and hands
// the first grammar of each call grammar shape (DESIGN §4d) to the
// Packer that runs the final Sequitur pass (§3.5.2) on its own
// goroutine; the global CST's new entries go to a templater on another
// (DESIGN §4a). The timing sections get no pass: trace deflates the body
// they end up in. The pack therefore
// starts with the first batch, and the walk holds one batch of
// snapshots at a time; what the caller keeps is its own affair. The
// spill route pulls its batches through a fetch callback
// (FinalizeStreamed), which fetches the next batch while the walk
// takes in this one; the in-memory routes add slices of their resident
// array; the collector pushes each batch into a Walk as soon as its
// ranks have arrived.
//
// The trace is byte-identical for every batch size and GOMAXPROCS.
// cst.Table.Absorb never renumbers a terminal, so a rank's relabel is
// final once ranks 0..r are absorbed, and the rank-order fold equals
// the paper's pairwise merge tree (DESIGN §4a). Every other
// cross-rank ordering decision (grammar first-seen dedup by identity
// and shape, rank index append) runs sequentially in rank order, and the
// Packer's output is a function of the grammars and their order, which
// is the dedup's: batching only changes when work happens, never what
// it computes.
package core

import (
	"fmt"
	"runtime"
	"time"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// SnapshotFetch returns snapshots for the contiguous rank range
// [start, start+n), in rank order. FinalizeStreamed calls it once per
// range, in rank order, one call at a time, on a goroutine of its own
// while the walk takes in the range before. The walk folds each Table
// into the global CST unless the finalize was handed a premerged one,
// in which case Table may be nil. Snapshots are never mutated, so a
// fetch may hand out resident ones.
type SnapshotFetch func(start, n int) ([]*Snapshot, error)

// BatchSize is the grain of the collector's walk for a world of ranks
// (each run's walker takes its batches at it): a sixteenth of it (at least one rank), so the
// Packers have work from the first batch on, capped by
// MaxResidentSnapshots when that is set. FinalizeStreamed fetches at
// fetchGrain instead.
func (o Options) BatchSize(world int) int {
	k := max(1, (world+15)/16)
	if m := o.MaxResidentSnapshots; m > 0 && m < k {
		return m
	}
	return k
}

// fetchGrain returns FinalizeStreamed's batch, and the limit on the
// snapshots it lets be resident at once, each counted from the fetch
// that returns it to the end of its Walk.Add. Under a cap K the batch
// is BatchSize under a cap of max(1, ⌊K/2⌋), so the batch being walked
// and the next one, fetched beside it, fit in K; at K = 1 they do not,
// and each fetch waits for the Add before it. Without a cap two
// batches of BatchSize may be resident.
func (o Options) fetchGrain(world int) (batch, limit int) {
	k := o.MaxResidentSnapshots
	if k <= 0 {
		batch = o.BatchSize(world)
		return batch, 2 * batch
	}
	o.MaxResidentSnapshots = max(1, k/2)
	return o.BatchSize(world), k
}

// dedupState is one section's first-seen grammar dedup: batches append
// through it sequentially in rank order, so the numbering is identical
// to one sequential pass over all ranks. The call section's also dedups
// by shape and packs: flush hands the representatives first seen since
// the last flush to a sequitur.Packer, so the final Sequitur pass
// (§3.5.2) sees reps in order whoever runs it. The duration and
// interval sections' have no Packer.
type dedupState struct {
	seen map[string]int32
	uniq []sequitur.Serialized

	// shapes, if non-nil, dedups new grammars by shape key into shape
	// (trace.File.Shape), with each one's vector in vecs
	// (trace.File.ShapeVecs); reps, the Packer's input, is one per shape.
	shapes map[string]int32
	shape  []int32
	vecs   [][]int32
	reps   []sequitur.Serialized

	packer  *sequitur.Packer // nil without shapes
	queue   *par.Queue       // runs the Packer on its own goroutine; nil without shapes
	flushed int              // reps[:flushed] has been handed to the Packer
	busyNs  int64            // time spent inside the Packer; the queue's goroutine writes it until close
}

// newDedupState starts a section's dedup over world ranks; the call
// section's (calls) also dedups by shape and starts its Packer behind a
// queue deep enough for every flush (one per batch), so the walk never
// waits for it. A pending flush costs no memory of its own: reps holds
// its grammars anyway.
func newDedupState(world, flushes int, calls bool) *dedupState {
	d := &dedupState{seen: make(map[string]int32, world)}
	if calls {
		d.shapes, d.packer, d.queue = map[string]int32{}, sequitur.NewPacker(), par.NewQueue(flushes)
	}
	return d
}

// add returns g's index among the unique grammars; shapeKey and vec
// are its shape's key and its vector, for a dedup by shape.
func (d *dedupState) add(key string, g sequitur.Serialized, shapeKey string, vec []int32) int32 {
	j, ok := d.seen[key]
	if ok {
		return j
	}
	j = int32(len(d.uniq))
	d.seen[key], d.uniq = j, append(d.uniq, g)
	if d.shapes == nil {
		return j
	}
	rep, ok := d.shapes[shapeKey]
	if !ok {
		d.shapes[shapeKey], rep = j, -1
		d.reps = append(d.reps, g)
	}
	d.shape, d.vecs = append(d.shape, rep), append(d.vecs, vec)
	return j
}

// flush packs the representatives first seen since the last flush.
// They are never written again (reps only grows past them), so the
// queue's goroutine may read them while the walk appends.
func (d *dedupState) flush() {
	gs := d.reps[d.flushed:len(d.reps):len(d.reps)]
	d.flushed = len(d.reps)
	if len(gs) == 0 {
		return
	}
	d.queue.Do(func() {
		t := time.Now()
		for _, g := range gs {
			d.packer.Add(g)
		}
		d.busyNs += time.Since(t).Nanoseconds()
	})
}

// finish returns the pack of reps, all of which has been flushed.
func (d *dedupState) finish() sequitur.Serialized {
	d.queue.Close()
	t := time.Now()
	packed := d.packer.Finish()
	d.busyNs += time.Since(t).Nanoseconds()
	return packed
}

// cstGrain is how many new global CST entries Add lets pend before it
// hands them to the walk's templater (Walk.tmpl). A hand-off costs the
// walk a queue send and, at the first, a goroutine: at a grain of 1,
// stencil2d 16×2000's sixteen one-rank batches took 12 % longer to
// finalize (0.128 → 0.143 ms, 4 of 4 pairs on a 2-core VM), while at
// 128 its 41 entries never reach it and cg 4096×10's 8 135 go in about
// 250 an Add of 128 ranks. Tests lower it.
var cstGrain = 128

// maxPresize bounds the entries the walk makes room for in the global
// CST after its first batch, and so what a first batch that predicts
// too many can cost: about 2 MiB of map.
const maxPresize = 1 << 16

// Walk is the finalize walk as a value the caller advances: NewWalk
// starts the Packer, each Add walks the next ranks in rank order, and
// Finish returns the trace once all world ranks are in. Within an Add
// the fold is sequential and the relabel and key hashing fan out on
// GOMAXPROCS workers; every ordering-sensitive step (the fold, the
// first-seen grammar dedup and the rank index append) runs in rank order
// across Adds. The call section's final Sequitur pass runs beside the
// walk, an Add behind it (dedupState.flush), and so does the global
// CST's templating once it has grown by cstGrain entries (handOff). A
// Walk is not safe for concurrent use.
type Walk struct {
	world, next int
	opts        Options
	workers     int
	lossy       bool
	premerged   *cst.Merged
	global      *cst.Table
	st          FinalizeStats
	cfgNs       int64

	dsp            obs.Span // finalize.dedup_pack, from NewWalk to Finish
	calls          *dedupState
	durState       *dedupState // lossy timing only, as are the two below
	intState       *dedupState
	rankIdx        []int32 // per rank, its call grammar's index
	durIdx, intIdx []int32
	batches        int // at most this many Adds, fetchGrain's

	// The global CST templated beside the walk (trace.CSTTemplater):
	// pending holds the signatures of the entries folded in since the
	// last hand-off, and each hand-off splits them on tq's goroutine.
	// tmpl and tq are nil until the first hand-off.
	pending []string
	handed  int // entries handed to tmpl so far
	tmpl    *trace.CSTTemplater
	tq      *par.Queue
}

// NewWalk starts a walk over world ranks. premerged, when non-nil, is a
// global CST and relabels unified before the walk and cstMergeNs the
// time that took; without it the walk folds the tables itself. The
// trace is the same bytes either way. The Packer's queue is as deep as
// the walk has batches of fetchGrain, the finer of the two grains.
func NewWalk(world int, premerged *cst.Merged, cstMergeNs int64, opts Options) *Walk {
	opts = opts.withDefaults()
	w := &Walk{
		world:     world,
		opts:      opts,
		workers:   runtime.GOMAXPROCS(0),
		lossy:     opts.TimingMode == trace.TimingLossy,
		premerged: premerged,
		global:    cst.New(),
	}
	w.st.CSTMergeNs = cstMergeNs
	if premerged != nil {
		w.global = premerged.Table
	}
	if world == 0 {
		return w // Finish returns the zero-rank result
	}
	batch, _ := opts.fetchGrain(world)
	w.batches = (world + batch - 1) / batch
	w.dsp = opts.ObsSink.Start("finalize", "finalize.dedup_pack").WithAttr("ranks", int64(world))
	w.calls = newDedupState(world, w.batches, true)
	w.rankIdx = make([]int32, 0, world)
	if w.lossy {
		w.durState, w.intState = newDedupState(world, w.batches, false), newDedupState(world, w.batches, false)
		w.durIdx = make([]int32, 0, world)
		w.intIdx = make([]int32, 0, world)
	}
	return w
}

// GlobalCST is the size of the global CST folded so far.
func (w *Walk) GlobalCST() int { return w.global.Len() }

// Add walks the next len(snaps) ranks. They must be the ranks that
// follow the last Add's, in rank order, each with its Table unless the
// walk was handed a premerged CST, so a buggy fetch fails loudly
// instead of silently misattributing grammars to ranks. Add also fails
// when a grammar names a terminal its rank's table never held. The
// snapshots are only read, and none is referenced once Add returns
// except the first-seen timing grammars, which the trace keeps. A
// merged CST entry whose count or duration sum would pass an int64
// fails Add too, and the walk is then dropped.
func (w *Walk) Add(snaps []*Snapshot) error {
	start, n := w.next, len(snaps)
	if n > w.world-start {
		return fmt.Errorf("core: walk of %d ranks at rank %d given %d more", w.world, start, n)
	}
	for i, s := range snaps {
		if s == nil {
			return fmt.Errorf("core: walk given a nil snapshot for rank %d", start+i)
		}
		if s.Rank != start+i {
			return fmt.Errorf("core: walk given rank %d where rank %d was due", s.Rank, start+i)
		}
		if w.premerged == nil && s.Table == nil {
			return fmt.Errorf("core: walk given rank %d without its table", s.Rank)
		}
	}
	for _, s := range snaps {
		w.st.IntraNs += s.IntraNs
		w.st.TotalCalls += s.Calls
	}
	// The batch's tables join the global CST in rank order; a rank's
	// relabel is final the moment its table is absorbed.
	t0 := time.Now()
	var relabels [][]int32
	if w.premerged != nil {
		relabels = w.premerged.Relabels[start : start+n]
	} else {
		msp := w.opts.ObsSink.Start("finalize", "finalize.cst_merge").
			WithAttr("start", int64(start)).WithAttr("ranks", int64(n))
		relabels = make([][]int32, n)
		before := w.global.Len()
		for i, s := range snaps {
			var err error
			if relabels[i], err = w.global.Absorb(s.Table); err != nil {
				msp.WithStr("result", "error").End()
				return fmt.Errorf("core: merge rank %d: %w", s.Rank, err)
			}
		}
		msp.WithAttr("global_cst", int64(w.global.Len())).End()
		if start == 0 && n < w.world {
			// Room for the rest of the world at the first batch's rate of
			// new entries per rank, up to maxPresize: grown entry by
			// entry, the table's map rehashes at every doubling, which
			// took 40 % of a 4 096-rank cg fold.
			w.global.Grow(min(w.global.Len()*(w.world-n)/n, maxPresize))
		}
		for term := before; term < w.global.Len(); term++ {
			w.pending = append(w.pending, w.global.SigString(int32(term)))
		}
		if len(w.pending) >= cstGrain && start+n < w.world {
			w.handOff()
		}
	}
	// Per-rank relabel against the global terminals (§3.5.1): each
	// rank rewrites only its own grammar, so the loop fans out freely.
	rsp := w.opts.ObsSink.Start("finalize", "finalize.relabel").
		WithAttr("start", int64(start)).WithAttr("ranks", int64(n))
	relabeled := make([]sequitur.Serialized, n)
	relabelErrs := make([]error, n)
	par.For(n, w.workers, func(i int) {
		relabeled[i], relabelErrs[i] = snaps[i].Grammar.Relabel(relabels[i])
	})
	rsp.End()
	for i, err := range relabelErrs {
		if err != nil {
			return fmt.Errorf("core: relabel rank %d: %w", start+i, err)
		}
	}
	w.st.CSTMergeNs += time.Since(t0).Nanoseconds()

	// Identity and shape keys fan out; the first-seen pass below stays
	// sequential in rank order (the §3.5.2 memcmp identity check).
	t1 := time.Now()
	keys, shapeKeys, vecs := make([]string, n), make([]string, n), make([][]int32, n)
	var durKeys, intKeys []string
	workers := min(w.workers, n)
	par.For(workers, workers, func(k int) {
		var shape sequitur.Serialized // only keyed: one buffer a worker
		for i := k; i < n; i += workers {
			keys[i] = grammarKey(relabeled[i])
			shape, vecs[i] = relabeled[i].ShapeInto(shape)
			shapeKeys[i] = grammarKey(shape)
		}
	})
	if w.lossy {
		durKeys, intKeys = make([]string, n), make([]string, n)
		par.For(n, w.workers, func(i int) {
			durKeys[i] = grammarKey(snaps[i].DurGrammar)
			intKeys[i] = grammarKey(snaps[i].IntGrammar)
		})
	}
	for i := 0; i < n; i++ {
		w.rankIdx = append(w.rankIdx, w.calls.add(keys[i], relabeled[i], shapeKeys[i], vecs[i]))
		if w.lossy {
			w.durIdx = append(w.durIdx, w.durState.add(durKeys[i], snaps[i].DurGrammar, "", nil))
			w.intIdx = append(w.intIdx, w.intState.add(intKeys[i], snaps[i].IntGrammar, "", nil))
		}
	}
	w.cfgNs += time.Since(t1).Nanoseconds()
	w.calls.flush()
	w.next += n
	return nil
}

// handOff hands the pending signatures to the templater's goroutine,
// starting it at the first hand-off, under one finalize.cst_template
// span. The strings are the table's own and immutable, so the goroutine
// never touches the table, which Absorb keeps appending to.
func (w *Walk) handOff() {
	if w.tq == nil {
		w.tmpl, w.tq = trace.NewCSTTemplater(0), par.NewQueue(w.batches)
	}
	tm, sink, sigs, from := w.tmpl, w.opts.ObsSink, w.pending, w.handed
	w.pending, w.handed = nil, w.handed+len(sigs)
	w.tq.Do(func() {
		sp := sink.Start("finalize", "finalize.cst_template").
			WithAttr("start_entry", int64(from)).WithAttr("entries", int64(len(sigs)))
		tm.Split(sigs)
		sp.WithAttr("templates", int64(tm.Templates())).End()
	})
}

// Stop joins the Packer's goroutine once it has packed everything
// flushed so far, and the templater's once it has split everything
// handed off, without producing a trace, for a walk abandoned before
// its last rank or on an error. Every return path calls it, so an error
// leaves no goroutine behind; it is safe to call after Finish and more
// than once.
func (w *Walk) Stop() {
	if w.calls != nil {
		w.calls.queue.Close()
	}
	if w.tq != nil {
		w.tq.Close()
	}
}

// Finish waits for the Packer and the templater, lays the trace of the
// walked ranks out and returns it; info, when non-nil, tags it as a
// salvage. Every rank must have been added.
func (w *Walk) Finish(info *trace.SalvageInfo) (*trace.File, FinalizeStats, error) {
	if w.next != w.world {
		w.Stop()
		return nil, FinalizeStats{}, fmt.Errorf("core: walk finished after %d of %d ranks", w.next, w.world)
	}
	if w.world == 0 { // every entry point's zero-rank result
		return &trace.File{CST: cst.New(), Salvage: info}, FinalizeStats{}, nil
	}
	st := w.st
	// The final Sequitur pass over the non-identical grammars (§3.5.2)
	// compresses shared rules across the shapes' first grammars. It has
	// been running since the first batch; what is left of it is all
	// finalize waits for here.
	t2 := time.Now()
	packed := w.calls.finish()
	w.dsp.WithAttr("unique_cfgs", int64(len(w.calls.uniq))).
		WithAttr("unique_shapes", int64(len(w.calls.reps))).
		WithAttr("wait_ns", time.Since(t2).Nanoseconds()).End()
	st.CFGMergeNs = w.cfgNs + w.calls.busyNs
	st.UniqueCFGs = len(w.calls.uniq)
	st.UniqueShapes = len(w.calls.reps)
	st.GlobalCST = w.global.Len()

	f := &trace.File{
		NumRanks:   w.world,
		TimingMode: w.opts.TimingMode,
		TimingBase: w.opts.TimingBase,
		CST:        w.global,
		Grammars:   w.calls.uniq,
		Shape:      w.calls.shape,
		ShapeVecs:  w.calls.vecs,
		Packed:     packed,
		RankMap:    w.rankIdx,
		Salvage:    info,
	}
	if w.lossy {
		f.DurGrammars, f.DurIndex = w.durState.uniq, w.durIdx
		f.IntGrammars, f.IntIndex = w.intState.uniq, w.intIdx
	}
	if w.tq != nil {
		// What the last Adds left pending is split here, once the
		// hand-offs are; the section is then built on the templater's
		// goroutine while this one lays out every other section. The CST
		// section, laid out last, waits for it.
		w.tq.Barrier()
		w.tmpl.Split(w.pending)
		w.pending = nil
		tm, g := w.tmpl, w.global
		w.tq.Do(func() { tm.Section(g) })
		f.CSTTemplater = tm
	}
	// The first write lays the File out, once; every later write, size
	// and report reads that form.
	bsp := w.opts.ObsSink.Start("finalize", "finalize.body").WithAttr("ranks", int64(w.world))
	st.TraceBytes = f.SizeBytes()
	body := f.BodyStorage()
	var waitNs int64
	if f.CSTTemplater != nil {
		waitNs = f.CSTTemplater.WaitNs()
		w.tq.Close()
	}
	bsp.WithAttr("raw_bytes", int64(body.Raw)).WithAttr("stored_bytes", int64(body.Stored)).
		WithAttr("cst_wait_ns", waitNs).End()
	if c := w.opts.Collector; c != nil {
		cstB, cfgB, durB, intB := f.SectionSizes()
		c.RecordTraceSections(cstB, cfgB, durB, intB, st.TraceBytes,
			f.UncompressedEstimate(), st.TotalCalls)
		c.RecordFinalize(st.IntraNs, st.CSTMergeNs, st.CFGMergeNs)
		st.Metrics = c.Report()
	}
	return f, st, nil
}

// FinalizeStreamed runs the finalize walk over world ranks fetched in
// batches of fetchGrain, each batch fetched while the walk Adds the one
// before when the two fit under MaxResidentSnapshots (pipeline).
// premerged and cstMergeNs are NewWalk's. The trace is the same bytes
// with or without a premerged CST, for every cap and GOMAXPROCS. It
// fails when fetch does, when a fetched batch breaks Add's contract, or
// when a grammar names a terminal its rank's table never held; a batch
// already fetched when Add fails is dropped unwalked. Every path joins
// the fetch goroutine and the Packer before it returns.
func FinalizeStreamed(world int, fetch SnapshotFetch, premerged *cst.Merged, cstMergeNs int64, opts Options, info *trace.SalvageInfo) (*trace.File, FinalizeStats, error) {
	w := NewWalk(world, premerged, cstMergeNs, opts)
	defer w.Stop()
	batch, limit := opts.fetchGrain(world)
	if err := pipeline(world, batch, limit, fetch, w.Add); err != nil {
		return nil, FinalizeStats{}, err
	}
	return w.Finish(info)
}

// fetched is what one fetch returned.
type fetched struct {
	snaps []*Snapshot
	err   error
}

// pipeline hands world ranks to add in batches of batch ranks, in rank
// order. Each batch is fetched on a goroutine of its own, one fetch at
// a time: the next starts as soon as it fits beside the snapshots
// already resident, which is before the Add of the batch before it
// when 2·batch ≤ limit, and after it otherwise. A batch is resident
// from the start of its fetch until its add returns, so at most limit
// snapshots are. pipeline returns only once no fetch is running, on
// every path; a batch fetched beside a failing add is dropped.
func pipeline(world, batch, limit int, fetch SnapshotFetch, add func([]*Snapshot) error) error {
	var pending chan fetched // the fetch in flight, nil when none is
	next, resident := 0, 0   // next: the first rank no fetch has asked for
	defer func() {
		if pending != nil {
			<-pending
		}
	}()
	prefetch := func() {
		n := min(batch, world-next)
		if pending != nil || n == 0 || resident+n > limit {
			return
		}
		ch, start := make(chan fetched, 1), next
		go func() {
			snaps, err := fetch(start, n)
			ch <- fetched{snaps, err}
		}()
		pending, next, resident = ch, next+n, resident+n
	}
	for start := 0; start < world; {
		prefetch()
		b := <-pending
		pending = nil
		n := min(batch, world-start)
		if b.err != nil {
			return b.err
		}
		if len(b.snaps) != n {
			return fmt.Errorf("core: snapshot fetch [%d,%d) returned %d snapshots", start, start+n, len(b.snaps))
		}
		prefetch()
		// The batch is dropped wholesale once walked, so what is resident
		// stays bounded.
		err := add(b.snaps)
		resident -= n
		if err != nil {
			return err
		}
		start += n
	}
	return nil
}
