package collect

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// finalizeStreamedLocked (r.mu held) finalizes a run whose snapshot
// payloads were partly dropped under MaxResidentSnapshots: the tables
// were merged on arrival, and core.FinalizeStreamed's walk reads the
// grammars back from the run journal in batches no larger than the cap,
// so peak finalize memory stays bounded while the trace stays
// byte-identical to the all-resident path.
func (s *Server) finalizeStreamedLocked(r *run, info *trace.SalvageInfo) (*trace.File, error) {
	j := r.journal
	if j == nil {
		return nil, fmt.Errorf("%d spilled payloads but no journal", r.spilled)
	}
	// Every spilled ref points into frames.jnl. Barrier the journal
	// queue so all appends are in the file (its worker never takes
	// r.mu, so blocking here cannot deadlock), then read through a
	// private handle — the append handle belongs to the queue worker.
	j.q.Barrier()
	if j.broken.Load() {
		return nil, fmt.Errorf("journal broken with %d payloads spilled to it", r.spilled)
	}
	f, err := os.Open(filepath.Join(j.dir, framesName))
	if err != nil {
		return nil, fmt.Errorf("open journal frames: %w", err)
	}
	defer f.Close()
	var buf []byte // one journal entry, reused across the walk
	fetch := func(start, n int) ([]*core.Snapshot, error) {
		out := make([]*core.Snapshot, n)
		for i := range out {
			rank := start + i
			ref := r.jrefs[rank]
			if ref[1] == 0 {
				out[i] = r.snaps[rank]
				continue
			}
			// One read per entry, parsed in place; the table was merged on
			// arrival, so its section is skipped. An identity mismatch is a
			// bug, not a torn tail: refs cover only accepted appends.
			buf = slices.Grow(buf[:0], int(ref[1]))[:ref[1]]
			if _, err := f.ReadAt(buf, ref[0]); err != nil {
				return nil, fmt.Errorf("journal rank %d: %w", rank, err)
			}
			h, snap, err := wire.DecodePair(buf, false)
			if err != nil {
				return nil, fmt.Errorf("journal rank %d: %w", rank, err)
			}
			if h.Rank != rank || h.RunID != r.id || h.Epoch != r.epoch {
				return nil, fmt.Errorf("journal entry at %d holds run %s rank %d epoch %d, expected %s/%d/%d",
					ref[0], h.RunID, h.Rank, h.Epoch, r.id, rank, r.epoch)
			}
			out[i] = snap
		}
		return out, nil
	}
	merged := r.inc.Result()
	file, _, err := core.FinalizeStreamed(r.world, fetch, &merged, r.mergeNs, r.opts, info)
	return file, err
}
