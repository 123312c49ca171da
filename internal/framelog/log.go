package framelog

import (
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// Ref locates one frame pair in frames.jnl. The zero Ref locates none.
type Ref struct{ Off, Len int64 }

// frameOverhead is what wire framing adds to a body: length, type and
// CRC32C.
const frameOverhead = 4 + 1 + 4

// AppendPair appends one snapshot's (Hello, Snapshot) frame pair — the
// exact bytes a producer puts on the wire — to dst, growing it at most
// once, and, into a buffer with room, allocating nothing: the hello is
// encoded in place (wire.AppendHelloFrame).
func AppendPair(dst []byte, h *wire.Hello, body []byte) []byte {
	dst = slices.Grow(dst, 2*frameOverhead+wire.MaxHelloLen(len(h.RunID))+len(body))
	return wire.AppendFrame(wire.AppendHelloFrame(dst, h), wire.TypeSnapshot, body)
}

// Create opens the directory's frames.jnl for appending, making the
// directory first: each Write lands whole frame pairs at the end of the
// file. fresh truncates what an earlier run left there; otherwise
// appends continue after the file's current end.
func (d Dir) Create(fresh bool) (File, error) {
	if err := d.FS.MkdirAll(d.Path); err != nil {
		return nil, fmt.Errorf("framelog: %w", err)
	}
	flag := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if fresh {
		flag |= os.O_TRUNC
	}
	f, err := d.FS.OpenFile(d.frames(), flag)
	if err != nil {
		return nil, fmt.Errorf("framelog: %w", err)
	}
	return f, nil
}

// DefaultRunCap is the Fetcher's default bound on one read.
const DefaultRunCap = 1 << 20

// Fetcher reads one run's frame pairs back by their Refs, reusing one
// buffer across calls.
type Fetcher struct {
	From  io.ReaderAt
	Run   string
	Epoch uint64
	// RunCap bounds the bytes one ReadAt moves (0 means DefaultRunCap):
	// a run of back-to-back pairs is cut there, and a larger pair
	// travels alone.
	RunCap int
	buf    []byte
}

// Fetch decodes into snaps[i] the pair refs[i] locates, rank start+i's;
// a zero ref leaves snaps[i] as it is. Each maximal run of pairs that
// sit back to back in the file (a rank-ordered log is one run per
// batch) comes in with one ReadAt and is decoded in place. Every pair
// must be intact and carry the Fetcher's run and epoch and its own
// rank: the refs come from the writer, so a mismatch is corruption.
func (fe *Fetcher) Fetch(start int, refs []Ref, snaps []*core.Snapshot) error {
	runCap := int64(fe.RunCap)
	if runCap <= 0 {
		runCap = DefaultRunCap
	}
	for i := 0; i < len(refs); {
		if refs[i].Len == 0 {
			i++
			continue
		}
		off, size := refs[i].Off, refs[i].Len
		j := i + 1
		for ; j < len(refs); j++ {
			next := refs[j]
			if next.Len == 0 || next.Off != off+size || size+next.Len > runCap {
				break
			}
			size += next.Len
		}
		fe.buf = slices.Grow(fe.buf[:0], int(size))
		buf := fe.buf[:size]
		if _, err := fe.From.ReadAt(buf, off); err != nil {
			return fmt.Errorf("framelog: ranks [%d,%d) at offset %d: %w", start+i, start+j, off, err)
		}
		for ; i < j; i++ {
			rank := start + i
			pair := buf[:refs[i].Len]
			buf = buf[len(pair):]
			h, s, err := wire.DecodePair(pair)
			if err != nil {
				return fmt.Errorf("framelog: rank %d: %w", rank, err)
			}
			if h.Rank != rank || h.RunID != fe.Run || h.Epoch != fe.Epoch {
				return fmt.Errorf("framelog: rank %d: entry at offset %d holds run %s rank %d epoch %d, want run %s epoch %d",
					rank, refs[i].Off, h.RunID, h.Rank, h.Epoch, fe.Run, fe.Epoch)
			}
			snaps[i] = s
		}
	}
	return nil
}
