package framelog

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/hpcrepro/pilgrim/internal/wire"
)

// Entry is one logged frame pair exactly as it crossed the wire,
// framing and CRC trailers included, plus the decoded hello. The
// snapshot body is not decoded: a replay ships it verbatim.
type Entry struct {
	Hello    *wire.Hello
	HelloRaw []byte // complete hello frame (header + body + CRC)
	SnapRaw  []byte // complete snapshot frame
	Body     []byte // the snapshot frame's body, aliasing SnapRaw
	Off      int64  // where the pair starts in frames.jnl
}

// Bytes is the pair's total on-wire size.
func (e *Entry) Bytes() int64 { return int64(len(e.HelloRaw) + len(e.SnapRaw)) }

// Ref locates the pair in frames.jnl.
func (e *Entry) Ref() Ref { return Ref{Off: e.Off, Len: e.Bytes()} }

// Reader scans one log's frame pairs in append order. After Next
// returns io.EOF, Torn reports whether the file ended in a torn or
// corrupt pair (expected after a crash) and how many trailing bytes
// were unreadable; Repair cuts them off.
type Reader struct {
	d    Dir
	man  Manifest
	f    File
	cr   countingReader
	size int64
	good int64 // where the last intact pair ends
	done bool
	torn bool
	// hasFrames records that frames.jnl existed when the log was opened.
	hasFrames bool
}

// Open opens the log directory for a scan. A log whose frames were
// dropped (a collector's finalized run outside capture mode) opens fine
// and yields no entries.
func (d Dir) Open() (*Reader, error) {
	mdata, err := d.FS.ReadFile(filepath.Join(d.Path, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("framelog: open: %w", err)
	}
	m, err := ParseManifest(mdata)
	if err != nil {
		return nil, fmt.Errorf("framelog: open %s: %w", d.Path, err)
	}
	r := &Reader{d: d, man: *m}
	f, err := d.FS.OpenFile(d.frames(), os.O_RDONLY)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			r.done = true
			return r, nil
		}
		return nil, fmt.Errorf("framelog: open frames: %w", err)
	}
	if fi, err := f.Stat(); err == nil {
		r.size = fi.Size()
	}
	r.f, r.cr.r, r.hasFrames = f, f, true
	return r, nil
}

// Dir is the log directory the reader scans.
func (r *Reader) Dir() Dir { return r.d }

// Manifest is the log's parsed manifest.
func (r *Reader) Manifest() Manifest { return r.man }

// HasFrames reports whether the log still had its frames file when it
// was opened.
func (r *Reader) HasFrames() bool { return r.hasFrames }

// Next returns the next intact frame pair, or io.EOF when the log is
// exhausted. A torn or corrupt tail, or a pair that does not belong to
// the manifest's run, epoch and world, ends the scan with io.EOF and is
// reported through Torn.
func (r *Reader) Next() (*Entry, error) {
	if r.done {
		return nil, io.EOF
	}
	ht, hraw, hbody, err := wire.ReadFrameRaw(&r.cr)
	if err != nil {
		r.finish(!errors.Is(err, io.EOF) || r.cr.n != r.good)
		return nil, io.EOF
	}
	st, sraw, sbody, err := wire.ReadFrameRaw(&r.cr)
	if err != nil || ht != wire.TypeHello || st != wire.TypeSnapshot {
		r.finish(true)
		return nil, io.EOF
	}
	h, err := wire.DecodeHello(hbody)
	if err != nil || h.RunID != r.man.RunID || h.Epoch != r.man.Epoch || h.WorldSize != r.man.World {
		r.finish(true)
		return nil, io.EOF
	}
	e := &Entry{Hello: h, HelloRaw: hraw, SnapRaw: sraw, Body: sbody, Off: r.good}
	r.good = r.cr.n
	return e, nil
}

// ReadAll drains the reader and returns every intact entry.
func (r *Reader) ReadAll() []*Entry {
	var out []*Entry
	for {
		e, err := r.Next()
		if err != nil {
			return out
		}
		out = append(out, e)
	}
}

// Torn reports whether the log ended in a torn or corrupt pair, and how
// many trailing bytes follow the last intact one. Meaningful once Next
// has returned io.EOF.
func (r *Reader) Torn() (torn bool, truncatedBytes int64) {
	return r.torn, r.size - r.good
}

// Intact is the length of the frames file's intact prefix: where the
// last intact pair ends, and where appends continue after Repair.
func (r *Reader) Intact() int64 { return r.good }

// Repair truncates the frames file to its intact prefix, so appends
// continue from the last intact pair. Call it once Next has returned
// io.EOF; a log with nothing to cut is left alone.
func (r *Reader) Repair() error {
	if r.size <= r.good {
		return nil
	}
	if err := r.d.FS.Truncate(r.d.frames(), r.good); err != nil {
		return fmt.Errorf("framelog: truncate torn tail: %w", err)
	}
	return nil
}

func (r *Reader) finish(torn bool) {
	r.done = true
	r.torn = torn
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// Close releases the frames file. Safe after io.EOF.
func (r *Reader) Close() error {
	r.finish(r.torn)
	return nil
}

// countingReader tracks how many bytes the scan consumed, so the reader
// knows where the last intact pair ends.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}
