// The finalize walk (§3.5), every route's one implementation: rank
// snapshots arrive in batches, in rank order, and per batch the walk
// folds their tables into the global CST, relabels each grammar
// against it (§3.5.1), keys and deduplicates the grammars, and hands
// the first grammar of each call grammar shape (DESIGN §4d) to the
// Packer that runs the final Sequitur pass (§3.5.2) on its own
// goroutine. The timing sections get no pass: trace stores each set
// raw or deflated. The pack therefore
// starts with the first batch, and the walk holds one batch of
// snapshots at a time; what the caller keeps is its own affair. The
// local routes pull their batches through a fetch callback
// (FinalizeStreamed); the collector pushes each batch into a Walk as
// soon as its ranks have arrived.
//
// The trace is byte-identical for every batch size and GOMAXPROCS.
// cst.Table.Absorb never renumbers a terminal, so a rank's relabel is
// final once ranks 0..r are absorbed, and the rank-order fold equals
// the paper's pairwise merge tree (DESIGN §4a). Every other
// cross-rank ordering decision (grammar first-seen dedup by identity
// and shape, rank map append) runs sequentially in rank order, and the
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
// [start, start+n), in rank order. It is called once per range, in
// rank order. The walk folds each Table into the global CST unless the
// finalize was handed a premerged one, in which case Table may be nil.
// Snapshots are never mutated, so an in-memory fetch may hand out its
// resident ones.
type SnapshotFetch func(start, n int) ([]*Snapshot, error)

// BatchSize is the walk's grain for a world of ranks: a sixteenth of
// it (at least one rank), so the Packers have work from the first
// batch on, capped by MaxResidentSnapshots when that is set.
func (o Options) BatchSize(world int) int {
	k := max(1, (world+15)/16)
	if m := o.MaxResidentSnapshots; m > 0 && m < k {
		return m
	}
	return k
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
	// (trace.File.Shape); reps, the Packer's input, is one per shape.
	shapes map[string]int32
	shape  []int32
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

// add returns g's index among the unique grammars.
func (d *dedupState) add(key string, g sequitur.Serialized, shapeKey string) int32 {
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
	d.shape = append(d.shape, rep)
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

// Walk is the finalize walk as a value the caller advances: NewWalk
// starts the Packer, each Add walks the next ranks in rank order, and
// Finish returns the trace once all world ranks are in. Within an Add
// the fold is sequential and the relabel and key hashing fan out on
// GOMAXPROCS workers; every ordering-sensitive step (the fold, the
// first-seen grammar dedup and the rank-map append) runs in rank order
// across Adds. The call section's final Sequitur pass runs beside the
// walk, an Add behind it (dedupState.flush). A Walk is not safe for
// concurrent use.
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
	durIdx, intIdx []int32
	rankMap        *sequitur.Grammar
}

// NewWalk starts a walk over world ranks. premerged, when non-nil, is a
// global CST and relabels unified before the walk and cstMergeNs the
// time that took; without it the walk folds the tables itself. The
// trace is the same bytes either way. The Packer's queue is as deep as
// the walk has batches of Options.BatchSize.
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
	batch := opts.BatchSize(world)
	batches := (world + batch - 1) / batch
	w.dsp = opts.ObsSink.Start("finalize", "finalize.dedup_pack").WithAttr("ranks", int64(world))
	w.calls = newDedupState(world, batches, true)
	w.rankMap = sequitur.New()
	if w.lossy {
		w.durState, w.intState = newDedupState(world, batches, false), newDedupState(world, batches, false)
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
// except the first-seen timing grammars, which the trace keeps.
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
		for i, s := range snaps {
			relabels[i] = w.global.Absorb(s.Table)
		}
		msp.WithAttr("global_cst", int64(w.global.Len())).End()
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
	keys, shapeKeys := make([]string, n), make([]string, n)
	var durKeys, intKeys []string
	par.For(n, w.workers, func(i int) {
		keys[i] = grammarKey(relabeled[i])
		shape, _ := relabeled[i].Shape()
		shapeKeys[i] = grammarKey(shape)
	})
	if w.lossy {
		durKeys, intKeys = make([]string, n), make([]string, n)
		par.For(n, w.workers, func(i int) {
			durKeys[i] = grammarKey(snaps[i].DurGrammar)
			intKeys[i] = grammarKey(snaps[i].IntGrammar)
		})
	}
	for i := 0; i < n; i++ {
		w.rankMap.Append(w.calls.add(keys[i], relabeled[i], shapeKeys[i]))
		if w.lossy {
			w.durIdx = append(w.durIdx, w.durState.add(durKeys[i], snaps[i].DurGrammar, ""))
			w.intIdx = append(w.intIdx, w.intState.add(intKeys[i], snaps[i].IntGrammar, ""))
		}
	}
	w.cfgNs += time.Since(t1).Nanoseconds()
	w.calls.flush()
	w.next += n
	return nil
}

// Stop joins the Packer's goroutine once it has packed everything
// flushed so far, without producing a trace, for a walk abandoned
// before its last rank or on an error. Every return path calls it, so
// an error leaves no goroutine behind; it is safe to call after Finish
// and more than once.
func (w *Walk) Stop() {
	if w.calls != nil {
		w.calls.queue.Close()
	}
}

// Finish waits for the Packer and returns the trace of the walked
// ranks; info, when non-nil, tags it as a salvage. Every rank must have
// been added.
func (w *Walk) Finish(info *trace.SalvageInfo) (*trace.File, FinalizeStats, error) {
	if w.next != w.world {
		w.Stop()
		return nil, FinalizeStats{}, fmt.Errorf("core: walk finished after %d of %d ranks", w.next, w.world)
	}
	if w.world == 0 { // every entry point's zero-rank result
		return &trace.File{CST: cst.New(), RankMap: sequitur.Serialized(sequitur.New().Serialize()), Salvage: info}, FinalizeStats{}, nil
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
		Packed:     packed,
		RankMap:    sequitur.Serialized(w.rankMap.Serialize()),
		Salvage:    info,
	}
	if w.lossy {
		// The duration and interval sets are stored raw or deflated,
		// decided here once for the File and kept for every later write.
		tsp := w.opts.ObsSink.Start("finalize", "finalize.timing").WithAttr("ranks", int64(w.world))
		t3 := time.Now()
		f.DurGrammars, f.DurIndex = w.durState.uniq, w.durIdx
		f.IntGrammars, f.IntIndex = w.intState.uniq, w.intIdx
		dur, intv := f.TimingStorage()
		st.CFGMergeNs += time.Since(t3).Nanoseconds()
		tsp.WithAttr("raw_bytes", int64(dur.Raw+intv.Raw)).
			WithAttr("stored_bytes", int64(dur.Stored+intv.Stored)).End()
	}
	st.TraceBytes = f.SizeBytes()
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
// batches of Options.BatchSize: fetch, then Walk.Add, per batch.
// premerged and cstMergeNs are NewWalk's. The trace is the same bytes
// with or without a premerged CST. It fails when fetch does, when a
// fetched batch breaks Add's contract, or when a grammar names a
// terminal its rank's table never held.
func FinalizeStreamed(world int, fetch SnapshotFetch, premerged *cst.Merged, cstMergeNs int64, opts Options, info *trace.SalvageInfo) (*trace.File, FinalizeStats, error) {
	w := NewWalk(world, premerged, cstMergeNs, opts)
	defer w.Stop()
	batch := opts.BatchSize(world)
	for start := 0; start < world; start += batch {
		n := min(batch, world-start)
		snaps, err := fetch(start, n)
		if err != nil {
			return nil, FinalizeStats{}, err
		}
		if len(snaps) != n {
			return nil, FinalizeStats{}, fmt.Errorf("core: snapshot fetch [%d,%d) returned %d snapshots", start, start+n, len(snaps))
		}
		// Fetched snapshots are dropped wholesale when the batch ends,
		// so a batch's resident cost is bounded. They are not mutated:
		// the in-memory wrapper hands the caller's own array through.
		if err := w.Add(snaps); err != nil {
			return nil, FinalizeStats{}, err
		}
	}
	return w.Finish(info)
}
