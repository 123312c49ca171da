// The finalize walk (§3.5), every route's one implementation: rank
// snapshots arrive through a fetch callback in batches, and per batch
// the walk folds their tables into the global CST in rank order,
// relabels each grammar against it (§3.5.1), keys and deduplicates the
// grammars, and hands the first-seen ones to the section Packers that
// run the final Sequitur pass (§3.5.2) on their own goroutines. The
// pack therefore starts with the first batch, and the walk holds one
// batch of snapshots at a time; what the fetch keeps is its own affair.
//
// The trace is byte-identical for every batch size and worker count.
// cst.Table.Absorb never renumbers a terminal, so a rank's relabel is
// final once ranks 0..r are absorbed, and the rank-order fold equals
// the paper's pairwise merge tree (DESIGN §4a). Every other
// cross-rank ordering decision (grammar first-seen dedup, rank map
// append) runs sequentially in rank order, and a Packer's output is a
// function of the grammars and their order, which is the dedup's:
// batching only changes when work happens, never what it computes.
package core

import (
	"fmt"
	"time"

	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
)

// SnapshotFetch returns snapshots for the contiguous rank range
// [start, start+n), in rank order. It is called once per range, in
// rank order. The walk folds each Table into the global CST unless the
// finalize was handed a premerged one, in which case Table may be nil
// (a disk-backed fetch may skip decoding the CST section). Snapshots
// are never mutated, so an in-memory fetch may hand out its resident
// ones.
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

// fetchRange calls fetch and validates its contract (length, rank
// order, and a table wherever the fold needs one), so a buggy spill
// reader fails loudly instead of silently misattributing grammars to
// ranks.
func fetchRange(fetch SnapshotFetch, start, n int, needTable bool) ([]*Snapshot, error) {
	snaps, err := fetch(start, n)
	if err != nil {
		return nil, err
	}
	if len(snaps) != n {
		return nil, fmt.Errorf("core: snapshot fetch [%d,%d) returned %d snapshots", start, start+n, len(snaps))
	}
	for i, s := range snaps {
		if s == nil {
			return nil, fmt.Errorf("core: snapshot fetch [%d,%d) returned nil snapshot at rank %d", start, start+n, start+i)
		}
		if s.Rank != start+i {
			return nil, fmt.Errorf("core: snapshot fetch [%d,%d) returned rank %d at position %d", start, start+n, s.Rank, i)
		}
		if needTable && s.Table == nil {
			return nil, fmt.Errorf("core: snapshot fetch [%d,%d) returned rank %d without its table", start, start+n, s.Rank)
		}
	}
	return snaps, nil
}

// dedupState is one section's first-seen grammar dedup: batches append
// through it sequentially in rank order, so the numbering is identical
// to one sequential pass over all ranks. It is also the one
// packing helper of the call, duration and interval sections: flush
// hands the grammars first seen since the last flush to a
// sequitur.Packer, so the final Sequitur pass (§3.5.2) sees uniq in
// order whoever runs it.
type dedupState struct {
	seen map[string]int32
	uniq []sequitur.Serialized

	packer  *sequitur.Packer
	queue   *par.Queue // runs the Packer on its own goroutine; nil: flush packs inline
	flushed int        // uniq[:flushed] has been handed to the Packer
	busyNs  int64      // time spent inside the Packer; the queue's goroutine writes it until close
}

// newDedupState starts a section's dedup and its Packer. With more
// than one worker the Packer runs behind a queue deep enough for every
// flush (one per batch), so the walk never waits for it: the grammars a
// pending flush holds are retained for the trace file either way.
func newDedupState(workers, flushes int) *dedupState {
	d := &dedupState{seen: map[string]int32{}, packer: sequitur.NewPacker()}
	if workers > 1 {
		d.queue = par.NewQueue(flushes)
	}
	return d
}

func (d *dedupState) add(key string, g sequitur.Serialized) int32 {
	j, ok := d.seen[key]
	if !ok {
		j = int32(len(d.uniq))
		d.seen[key] = j
		d.uniq = append(d.uniq, g)
	}
	return j
}

// flush packs the grammars first seen since the last flush. They are
// never written again (uniq only grows past them), so the queue's
// goroutine may read them while the walk appends.
func (d *dedupState) flush() {
	gs := d.uniq[d.flushed:len(d.uniq):len(d.uniq)]
	d.flushed = len(d.uniq)
	if len(gs) == 0 {
		return
	}
	pack := func() {
		t := time.Now()
		for _, g := range gs {
			d.packer.Add(g)
		}
		d.busyNs += time.Since(t).Nanoseconds()
	}
	if d.queue == nil {
		pack()
	} else {
		d.queue.Do(pack)
	}
}

// stop joins the Packer's goroutine once it has packed everything
// flushed so far. Every return path calls it (it is safe to call
// twice), so an error leaves no goroutine behind.
func (d *dedupState) stop() {
	if d.queue != nil {
		d.queue.Close()
	}
}

// finish returns the pack of uniq, all of which has been flushed.
func (d *dedupState) finish() sequitur.Serialized {
	d.stop()
	t := time.Now()
	packed := d.packer.Finish()
	d.busyNs += time.Since(t).Nanoseconds()
	return packed
}

// FinalizeStreamed runs the finalize walk over world ranks fetched in
// batches of Options.BatchSize. premerged, when non-nil, is a global
// CST and relabels unified before the call — the collector merges
// tables as ranks report — and cstMergeNs the time that took; without
// it the walk folds the fetched tables itself. The trace is the same
// bytes either way. It fails when fetch does, when a fetched snapshot
// lacks the table the fold needs, or when a grammar names a terminal
// its rank's table never held.
//
// Within a batch the fold is sequential and the relabel and key hashing
// fan out across workers; every ordering-sensitive step (the fold, the
// first-seen grammar dedup and the rank-map append) runs in rank order
// across batches. Each section's final Sequitur pass runs beside the
// walk, a batch behind it (dedupState.flush); FinalizeWorkers == 1
// keeps it inline.
func FinalizeStreamed(world int, fetch SnapshotFetch, premerged *cst.Merged, cstMergeNs int64, opts Options, info *trace.SalvageInfo) (*trace.File, FinalizeStats, error) {
	opts = opts.withDefaults()
	if world == 0 { // every entry point's zero-rank result
		return &trace.File{CST: cst.New(), RankMap: sequitur.Serialized(sequitur.New().Serialize()), Salvage: info}, FinalizeStats{}, nil
	}
	workers := par.Workers(opts.FinalizeWorkers)
	lossy := opts.TimingMode == trace.TimingLossy
	var st FinalizeStats
	st.CSTMergeNs = cstMergeNs
	global := cst.New()
	if premerged != nil {
		global = premerged.Table
	}

	batch := opts.BatchSize(world)
	batches := (world + batch - 1) / batch
	dsp := opts.ObsSink.Start("finalize", "finalize.dedup_pack").WithAttr("ranks", int64(world))
	calls := newDedupState(workers, batches)
	defer calls.stop()
	rankMap := sequitur.New()
	var durState, intState *dedupState
	var durIdx, intIdx []int32
	if lossy {
		durState, intState = newDedupState(workers, batches), newDedupState(workers, batches)
		defer durState.stop()
		defer intState.stop()
		durIdx = make([]int32, 0, world)
		intIdx = make([]int32, 0, world)
	}

	var cfgNs int64
	for start := 0; start < world; start += batch {
		n := min(batch, world-start)
		snaps, err := fetchRange(fetch, start, n, premerged == nil)
		if err != nil {
			return nil, FinalizeStats{}, err
		}
		// Fetched snapshots are dropped wholesale when the batch ends,
		// so a batch's resident cost is bounded. They are not mutated:
		// the in-memory wrapper hands the caller's own array through.
		for _, s := range snaps {
			st.IntraNs += s.IntraNs
			st.TotalCalls += s.Calls
		}
		// The batch's tables join the global CST in rank order; a rank's
		// relabel is final the moment its table is absorbed.
		t0 := time.Now()
		var relabels [][]int32
		if premerged != nil {
			relabels = premerged.Relabels[start : start+n]
		} else {
			msp := opts.ObsSink.Start("finalize", "finalize.cst_merge").
				WithAttr("start", int64(start)).WithAttr("ranks", int64(n))
			relabels = make([][]int32, n)
			for i, s := range snaps {
				relabels[i] = global.Absorb(s.Table)
			}
			msp.WithAttr("global_cst", int64(global.Len())).End()
		}
		// Per-rank relabel against the global terminals (§3.5.1): each
		// rank rewrites only its own grammar, so the loop fans out freely.
		rsp := opts.ObsSink.Start("finalize", "finalize.relabel").
			WithAttr("start", int64(start)).WithAttr("ranks", int64(n))
		relabeled := make([]sequitur.Serialized, n)
		relabelErrs := make([]error, n)
		par.For(n, workers, func(i int) {
			relabeled[i], relabelErrs[i] = snaps[i].Grammar.Relabel(relabels[i])
		})
		rsp.End()
		for i, err := range relabelErrs {
			if err != nil {
				return nil, FinalizeStats{}, fmt.Errorf("core: relabel rank %d: %w", start+i, err)
			}
		}
		st.CSTMergeNs += time.Since(t0).Nanoseconds()

		// Identity keys fan out; the first-seen pass below stays
		// sequential in rank order (the §3.5.2 memcmp identity check).
		t1 := time.Now()
		keys := make([]string, n)
		var durKeys, intKeys []string
		par.For(n, workers, func(i int) {
			keys[i] = grammarKey(relabeled[i])
		})
		if lossy {
			durKeys, intKeys = make([]string, n), make([]string, n)
			par.For(n, workers, func(i int) {
				durKeys[i] = grammarKey(snaps[i].DurGrammar)
				intKeys[i] = grammarKey(snaps[i].IntGrammar)
			})
		}
		for i := 0; i < n; i++ {
			rankMap.Append(calls.add(keys[i], relabeled[i]))
			if lossy {
				durIdx = append(durIdx, durState.add(durKeys[i], snaps[i].DurGrammar))
				intIdx = append(intIdx, intState.add(intKeys[i], snaps[i].IntGrammar))
			}
		}
		cfgNs += time.Since(t1).Nanoseconds()
		calls.flush()
		if lossy {
			durState.flush()
			intState.flush()
		}
	}

	// The final Sequitur pass over the non-identical grammars (§3.5.2)
	// compresses shared rules across similar ranks and dominates the
	// inter-process CFG compression time when many unique grammars
	// survive the identity check. It has been running since the first
	// batch; what is left of it is all finalize waits for here.
	t2 := time.Now()
	packed := calls.finish()
	dsp.WithAttr("unique_cfgs", int64(len(calls.uniq))).
		WithAttr("wait_ns", time.Since(t2).Nanoseconds()).End()
	st.CFGMergeNs = cfgNs + calls.busyNs
	st.UniqueCFGs = len(calls.uniq)
	st.GlobalCST = global.Len()

	f := &trace.File{
		NumRanks:   world,
		TimingMode: opts.TimingMode,
		TimingBase: opts.TimingBase,
		CST:        global,
		Grammars:   calls.uniq,
		Packed:     packed,
		RankMap:    sequitur.Serialized(rankMap.Serialize()),
		Salvage:    info,
	}
	if lossy {
		// The duration and interval streams are independent sections,
		// each packed by its own dedupState beside the call section's.
		tsp := opts.ObsSink.Start("finalize", "finalize.timing").WithAttr("ranks", int64(world))
		f.DurGrammars, f.DurIndex = durState.uniq, durIdx
		f.IntGrammars, f.IntIndex = intState.uniq, intIdx
		f.PackedDur = durState.finish()
		f.PackedInt = intState.finish()
		tsp.End()
		st.CFGMergeNs += durState.busyNs + intState.busyNs
	}
	st.TraceBytes = f.SizeBytes()
	if c := opts.Collector; c != nil {
		cstB, cfgB, durB, intB := f.SectionSizes()
		c.RecordTraceSections(cstB, cfgB, durB, intB, st.TraceBytes,
			f.UncompressedEstimate(), st.TotalCalls)
		c.RecordFinalize(st.IntraNs, st.CSTMergeNs, st.CFGMergeNs)
		st.Metrics = c.Report()
	}
	return f, st, nil
}
