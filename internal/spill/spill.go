// Package spill is the local half of the streaming, bounded-memory
// finalize: it snapshots the ranks a batch at a time, writes each batch
// to an on-disk spill in the collector's journal format (MANIFEST.json
// + a frames.jnl of CRC32C-framed (Hello, Snapshot) wire pairs —
// readable by pilgrim-dump -journal and collect.JournalReader,
// replayable by pilgrim-loadgen), and hands the batch straight to
// core.FinalizeStreamed's walk, which folds, relabels and packs it and
// drops it. A local run with core.Options.SpillDir set finalizes
// through here (FinalizeRanks) in one pass that writes every rank and
// reads none back, so peak resident snapshots is one batch instead of
// every rank while the produced trace stays byte-identical to the
// in-memory finalize.
package spill

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

const (
	manifestName = "MANIFEST.json"
	framesName   = "frames.jnl"
)

// manifest mirrors the collector journal's MANIFEST.json so the spill
// directory is inspectable with the same tooling.
type manifest struct {
	RunID      string  `json:"run"`
	Epoch      uint64  `json:"epoch"`
	World      int     `json:"nranks"`
	TimingMode uint8   `json:"timing_mode"`
	TimingBase float64 `json:"timing_base"`
	CreatedSec float64 `json:"created_unix"`
	State      string  `json:"state"` // collecting | finalized | salvaged
	Reason     string  `json:"reason,omitempty"`
}

// Writer spills snapshots for one run and can serve them back by rank
// range (Fetch). Not safe for concurrent use.
type Writer struct {
	dir string
	f   interface { // frames.jnl; an interface so a test can count its I/O
		io.ReaderAt
		io.WriterAt
		io.Closer
	}
	man   manifest
	world int
	off   int64      // where the next staged pair will land
	refs  [][2]int64 // rank -> (offset, length) of its frame pair; length 0 = not spilled
	wbuf  []byte     // pairs staged but not yet written; they end at off
	rbuf  []byte     // Fetch's read buffer, reused across runs
	// runCap bounds the bytes one ReadAt or WriteAt moves: a run of pairs
	// is cut there and a larger pair travels alone, so neither buffer
	// rivals the batch it serves.
	runCap int
}

// NewWriter creates (or truncates) the spill for runID under dir,
// writing a collecting-state manifest up front so a crash mid-spill
// leaves a self-describing directory behind.
func NewWriter(dir, runID string, world int, opts core.Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, framesName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	w := &Writer{
		dir: dir,
		f:   f,
		man: manifest{
			RunID:      runID,
			Epoch:      uint64(time.Now().UnixNano()),
			World:      world,
			TimingMode: opts.TimingMode,
			TimingBase: opts.TimingBase,
			CreatedSec: float64(time.Now().UnixNano()) / 1e9,
			State:      "collecting",
		},
		world:  world,
		refs:   make([][2]int64, world),
		runCap: 1 << 20,
	}
	if err := w.writeManifest(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *Writer) writeManifest() error {
	data, err := json.MarshalIndent(&w.man, "", "  ")
	if err != nil {
		return fmt.Errorf("spill: manifest: %w", err)
	}
	tmp := filepath.Join(w.dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("spill: manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, manifestName)); err != nil {
		return fmt.Errorf("spill: manifest: %w", err)
	}
	return nil
}

// Add appends one rank's snapshot as a (Hello, Snapshot) wire frame
// pair — the exact bytes a producer would put on the wire — and
// records its offset for Fetch. It writes through: frames.jnl is
// complete after every Add.
func (w *Writer) Add(s *core.Snapshot) error {
	if err := w.stage(s); err != nil {
		return err
	}
	return w.flush()
}

// stage builds one rank's frame pair into the write buffer; the next
// flush (forced here once runCap bytes wait) lands it in the file.
func (w *Writer) stage(s *core.Snapshot) error {
	if s.Rank < 0 || s.Rank >= w.world {
		return fmt.Errorf("spill: rank %d out of range [0,%d)", s.Rank, w.world)
	}
	if w.refs[s.Rank][1] != 0 {
		return fmt.Errorf("spill: rank %d spilled twice", s.Rank)
	}
	h := wire.Hello{
		Version:    wire.Version,
		RunID:      w.man.RunID,
		WorldSize:  w.world,
		Rank:       s.Rank,
		Epoch:      w.man.Epoch,
		TimingMode: w.man.TimingMode,
		TimingBase: w.man.TimingBase,
	}
	body := wire.EncodeSnapshot(s)
	if len(body) > wire.MaxFrame {
		return fmt.Errorf("spill: rank %d snapshot of %d bytes exceeds the frame cap", s.Rank, len(body))
	}
	before := len(w.wbuf)
	w.wbuf = wire.AppendFrame(w.wbuf, wire.TypeHello, h.Encode())
	w.wbuf = wire.AppendFrame(w.wbuf, wire.TypeSnapshot, body)
	n := int64(len(w.wbuf) - before)
	w.refs[s.Rank] = [2]int64{w.off, n}
	w.off += n
	if len(w.wbuf) >= w.runCap {
		return w.flush()
	}
	return nil
}

// flush lands every staged pair with one WriteAt.
func (w *Writer) flush() error {
	if len(w.wbuf) == 0 {
		return nil
	}
	_, err := w.f.WriteAt(w.wbuf, w.off-int64(len(w.wbuf)))
	w.wbuf = w.wbuf[:0]
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	return nil
}

// Fetch re-reads and CRC-validates the spilled frame pairs for
// [start, start+n), returning fresh, fully decoded snapshots. Each
// maximal run of pairs that sit back to back in the file (a rank-ordered
// spill is one run per batch) comes in with one ReadAt, cut at runCap,
// and is decoded in place.
func (w *Writer) Fetch(start, n int) ([]*core.Snapshot, error) {
	if start < 0 || start+n > w.world {
		return nil, fmt.Errorf("spill: fetch [%d,%d) out of range [0,%d)", start, start+n, w.world)
	}
	snaps := make([]*core.Snapshot, n)
	for i := 0; i < n; {
		off, size := w.refs[start+i][0], w.refs[start+i][1]
		if size == 0 {
			return nil, fmt.Errorf("spill: rank %d was never spilled", start+i)
		}
		// An unspilled rank's zero ref never continues a run (no pair
		// ends at offset 0), so it stops here and fails above.
		j := i + 1
		for ; j < n; j++ {
			next := w.refs[start+j]
			if next[0] != off+size || size+next[1] > int64(w.runCap) {
				break
			}
			size += next[1]
		}
		w.rbuf = slices.Grow(w.rbuf[:0], int(size))
		buf := w.rbuf[:size]
		if _, err := w.f.ReadAt(buf, off); err != nil {
			return nil, fmt.Errorf("spill: ranks [%d,%d) at offset %d: %w", start+i, start+j, off, err)
		}
		for ; i < j; i++ {
			rank := start + i
			pair := buf[:w.refs[rank][1]]
			buf = buf[len(pair):]
			h, s, err := wire.DecodePair(pair)
			if err != nil {
				return nil, fmt.Errorf("spill: rank %d: %w", rank, err)
			}
			if h.Rank != rank {
				return nil, fmt.Errorf("spill: frame at offset %d holds rank %d, expected %d", w.refs[rank][0], h.Rank, rank)
			}
			snaps[i] = s
		}
	}
	return snaps, nil
}

// Finish rewrites the manifest with the run's terminal state. The
// frames are retained — the spill directory doubles as a replayable
// wire recording (pilgrim-dump -journal, pilgrim-loadgen).
func (w *Writer) Finish(state, reason string) error {
	w.man.State, w.man.Reason = state, reason
	return w.writeManifest()
}

// Close releases the spill's file handle.
func (w *Writer) Close() error { return w.f.Close() }

// Finalize runs the streaming finalize over every tracer (FinalizeRanks
// with TakeSnapshot as the source). failed and reason tag a salvage
// finalize exactly as core.SalvageFinalize does; pass failed == nil
// for a clean run. The trace is byte-identical to the in-memory path.
func Finalize(tracers []*core.Tracer, failed map[int]error, reason string, opts core.Options) (*trace.File, core.FinalizeStats, error) {
	var info *trace.SalvageInfo
	if failed != nil || reason != "" {
		if opts.Collector != nil {
			opts.Collector.Salvages.Inc()
		}
		info = core.NewSalvageInfo(len(tracers), failed, reason)
	}
	return FinalizeRanks(len(tracers), func(rank int) *core.Snapshot {
		s := tracers[rank].TakeSnapshot()
		if info != nil {
			info.Calls[rank] = s.Calls
		}
		return s
	}, info, opts)
}

// FinalizeRanks is the spill route's one driver: one pass that writes
// every rank and reads none back. take(rank), called once per rank in
// rank order, hands over a snapshot the finalize owns. Per batch of
// opts.BatchSize ranks, the frames land in opts.SpillDir/<run> with one
// write and the snapshots go on to core.FinalizeStreamed's walk, which
// folds their tables, relabels, dedups and packs them and drops them.
// A non-nil info marks a salvage.
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
	f, st, err := core.FinalizeStreamed(w.world, func(start, n int) ([]*core.Snapshot, error) {
		return w.spillBatch(take, start, n, opts)
	}, nil, 0, opts, info)
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

// spillBatch takes ranks [start, start+n), lands their frame pairs in
// the file with one write, and returns the snapshots to the walk.
func (w *Writer) spillBatch(take func(rank int) *core.Snapshot, start, n int, opts core.Options) ([]*core.Snapshot, error) {
	sp := opts.ObsSink.Start("finalize", "finalize.spill").
		WithAttr("start", int64(start)).WithAttr("ranks", int64(n))
	defer sp.End()
	snaps := make([]*core.Snapshot, n)
	for i := range snaps {
		snaps[i] = take(start + i)
		if err := w.stage(snaps[i]); err != nil {
			return nil, err
		}
	}
	if err := w.flush(); err != nil {
		return nil, err
	}
	return snaps, nil
}
