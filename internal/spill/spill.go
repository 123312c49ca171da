// Package spill is the local half of the streaming, bounded-memory
// finalize: it snapshots the ranks a batch at a time, appends each
// batch to a frame-pair log (internal/framelog: MANIFEST.json + a
// frames.jnl of CRC32C-framed (Hello, Snapshot) wire pairs, the
// collector journal's layout — readable by pilgrim-dump -journal,
// replayable by pilgrim-loadgen), and hands the batch straight to
// core.FinalizeStreamed's walk, which folds, relabels and packs it and
// drops it. A local run with core.Options.SpillDir set finalizes
// through here (FinalizeRanks) in one pass that writes every rank and
// reads none back, so peak resident snapshots is at most
// MaxResidentSnapshots (the batch being walked and the one being
// spilled beside it) instead of every rank, while the produced trace
// stays byte-identical to the in-memory finalize.
package spill

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/par"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// Writer spills snapshots for one run and can serve them back by rank
// range (Fetch). Not safe for concurrent use.
type Writer struct {
	dir  framelog.Dir
	f    framelog.File // frames.jnl, appended to
	man  framelog.Manifest
	off  int64          // where the next staged pair will land
	refs []framelog.Ref // by rank; the zero Ref = not spilled
	wbuf []byte         // pairs staged but not yet written; they end at off
	// fetch reads ranks back; its RunCap also bounds wbuf, so neither
	// buffer rivals the batch it serves.
	fetch framelog.Fetcher
}

// NewWriter creates (or truncates) the spill for runID under dir,
// writing a collecting-state manifest up front so a crash mid-spill
// leaves a self-describing directory behind. It refuses a run ID that
// framelog.ValidRunID rejects, as the collector does: the ID names a
// directory, and the manifest must parse back.
func NewWriter(dir, runID string, world int, opts core.Options) (*Writer, error) {
	return newWriter(framelog.OSDir(dir), runID, world, opts)
}

func newWriter(dir framelog.Dir, runID string, world int, opts core.Options) (*Writer, error) {
	if !framelog.ValidRunID(runID) {
		return nil, fmt.Errorf("spill: invalid run id %q", runID)
	}
	f, err := dir.Create(true)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	w := &Writer{
		dir: dir,
		f:   f,
		man: framelog.Manifest{
			RunID:      runID,
			Epoch:      uint64(time.Now().UnixNano()),
			World:      world,
			TimingMode: opts.TimingMode,
			TimingBase: opts.TimingBase,
			CreatedSec: float64(time.Now().UnixNano()) / 1e9,
			State:      "collecting",
		},
		refs: make([]framelog.Ref, world),
	}
	w.fetch = framelog.Fetcher{From: f, Run: runID, Epoch: w.man.Epoch, RunCap: framelog.DefaultRunCap}
	if err := w.dir.WriteManifest(&w.man, false); err != nil {
		f.Close()
		return nil, fmt.Errorf("spill: %w", err)
	}
	return w, nil
}

// Add appends one rank's snapshot as a (Hello, Snapshot) wire frame
// pair — the exact bytes a producer would put on the wire — and
// records its offset for Fetch. It writes through: frames.jnl is
// complete after every Add.
func (w *Writer) Add(s *core.Snapshot) error {
	if err := w.due(s.Rank); err != nil {
		return err
	}
	if err := w.stage(s.Rank, wire.EncodeSnapshot(s)); err != nil {
		return err
	}
	return w.flush()
}

// due refuses a rank outside the world or already spilled.
func (w *Writer) due(rank int) error {
	if rank < 0 || rank >= len(w.refs) {
		return fmt.Errorf("spill: rank %d out of range [0,%d)", rank, len(w.refs))
	}
	if w.refs[rank].Len != 0 {
		return fmt.Errorf("spill: rank %d spilled twice", rank)
	}
	return nil
}

// stage builds the frame pair around a due rank's encoded snapshot into
// the write buffer; the next flush (forced here once RunCap bytes wait)
// lands it in the file.
func (w *Writer) stage(rank int, body []byte) error {
	if len(body) > wire.MaxFrame {
		return fmt.Errorf("spill: rank %d snapshot of %d bytes exceeds the frame cap", rank, len(body))
	}
	h := w.man.Hello(rank)
	before := len(w.wbuf)
	w.wbuf = framelog.AppendPair(w.wbuf, &h, body)
	n := int64(len(w.wbuf) - before)
	w.refs[rank] = framelog.Ref{Off: w.off, Len: n}
	w.off += n
	if len(w.wbuf) >= w.fetch.RunCap {
		return w.flush()
	}
	return nil
}

// flush lands every staged pair with one write.
func (w *Writer) flush() error {
	if len(w.wbuf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.wbuf)
	w.wbuf = w.wbuf[:0]
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	return nil
}

// Fetch re-reads and CRC-validates the spilled frame pairs for
// [start, start+n), returning fresh, fully decoded snapshots. Each
// maximal run of pairs that sit back to back in the file (a rank-ordered
// spill is one run per batch) comes in with one read.
func (w *Writer) Fetch(start, n int) ([]*core.Snapshot, error) {
	if start < 0 || n < 0 || start+n > len(w.refs) {
		return nil, fmt.Errorf("spill: fetch [%d,%d) out of range [0,%d)", start, start+n, len(w.refs))
	}
	refs := w.refs[start : start+n]
	for i, ref := range refs {
		if ref.Len == 0 {
			return nil, fmt.Errorf("spill: rank %d was never spilled", start+i)
		}
	}
	snaps := make([]*core.Snapshot, n)
	if err := w.fetch.Fetch(start, refs, snaps); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	return snaps, nil
}

// Finish rewrites the manifest with the run's terminal state. The
// frames are retained — the spill directory doubles as a replayable
// wire recording (pilgrim-dump -journal, pilgrim-loadgen).
func (w *Writer) Finish(state, reason string) error {
	w.man.State, w.man.Reason = state, reason
	if err := w.dir.WriteManifest(&w.man, false); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	return nil
}

// Close releases the spill's file handle.
func (w *Writer) Close() error { return w.f.Close() }

// Finalize runs the streaming finalize over every tracer (FinalizeRanks
// with TakeSnapshot as the source). failed and reason tag a salvage
// finalize (core.NewSalvageInfo); pass failed == nil and reason == ""
// for a clean run. The trace is byte-identical to the in-memory path.
func Finalize(tracers []*core.Tracer, failed map[int]error, reason string, opts core.Options) (*trace.File, core.FinalizeStats, error) {
	var info *trace.SalvageInfo
	if failed != nil || reason != "" {
		info = core.NewSalvageInfo(failed, reason)
	}
	return FinalizeRanks(len(tracers), func(rank int) *core.Snapshot {
		return tracers[rank].TakeSnapshot()
	}, info, opts)
}

// FinalizeRanks is the spill route's one driver: one pass that writes
// every rank and reads none back. take(rank), called once per rank,
// hands over a snapshot the finalize owns; the ranks of a batch are
// taken concurrently, on GOMAXPROCS workers, so take must be safe to
// call for distinct ranks at once. Per batch of core.FinalizeStreamed's
// fetch grain (under MaxResidentSnapshots K, ⌊K/2⌋ ranks), the frames
// land in opts.SpillDir/<run> with one write, in rank order, and the
// snapshots go on to the walk, which folds their tables, relabels,
// dedups and packs them and drops them while the next batch is taken,
// encoded and written. At most K snapshots are resident at once. A
// non-nil info marks a salvage.
func FinalizeRanks(world int, take func(rank int) *core.Snapshot, info *trace.SalvageInfo, opts core.Options) (*trace.File, core.FinalizeStats, error) {
	runID := opts.CollectorRunID
	if runID == "" {
		runID = "local"
	}
	w, err := NewWriter(filepath.Join(opts.SpillDir, runID), runID, world, opts)
	if err != nil {
		return nil, core.FinalizeStats{}, err
	}
	defer w.Close()
	return w.finalize(take, info, opts)
}

func (w *Writer) finalize(take func(rank int) *core.Snapshot, info *trace.SalvageInfo, opts core.Options) (*trace.File, core.FinalizeStats, error) {
	f, st, err := core.FinalizeStreamed(len(w.refs), func(start, n int) ([]*core.Snapshot, error) {
		return w.spillBatch(take, start, n, opts)
	}, opts, info)
	if err != nil {
		return nil, core.FinalizeStats{}, err
	}
	state, reason := "finalized", ""
	if info != nil {
		state, reason = "salvaged", info.Reason
	}
	if err := w.Finish(state, reason); err != nil {
		return nil, core.FinalizeStats{}, err
	}
	return f, st, nil
}

// spillBatch takes and encodes ranks [start, start+n) on GOMAXPROCS
// workers, stages their frame pairs in rank order, lands them in the
// file with one write, and returns the snapshots to the walk.
func (w *Writer) spillBatch(take func(rank int) *core.Snapshot, start, n int, opts core.Options) ([]*core.Snapshot, error) {
	sp := opts.ObsSink.Start("finalize", "finalize.spill").
		WithAttr("start", int64(start)).WithAttr("ranks", int64(n))
	defer sp.End()
	snaps, bodies := make([]*core.Snapshot, n), make([][]byte, n)
	par.For(n, runtime.GOMAXPROCS(0), func(i int) {
		snaps[i] = take(start + i)
		bodies[i] = wire.EncodeSnapshot(snaps[i])
	})
	for i, s := range snaps {
		if err := w.due(s.Rank); err != nil {
			return nil, err
		}
		if err := w.stage(s.Rank, bodies[i]); err != nil {
			return nil, err
		}
	}
	if err := w.flush(); err != nil {
		return nil, err
	}
	return snaps, nil
}
