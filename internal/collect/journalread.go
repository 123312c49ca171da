package collect

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/hpcrepro/pilgrim/internal/wire"
)

// Exported read access to captured run journals. The journal doubles
// as a complete wire-format recording of a run's ingest stream (the
// package comment in journal.go sells exactly that), and this file is
// the consumer side: pilgrim-loadgen replays the raw frames against a
// live collector, pilgrim-dump inspects them. Both get the daemon's
// own torn-tail semantics — a truncated final entry is reported, never
// fatal — without reimplementing the framing. The daemon's own
// crash-recovery replay (replayRun) reads through the same reader.

// JournalEntry is one captured ingest event: the (Hello, Snapshot)
// frame pair exactly as it crossed the wire, framing and CRC trailers
// included, plus the decoded hello for pacing and bookkeeping. The
// snapshot body is NOT decoded — replay ships it verbatim.
type JournalEntry struct {
	Hello    *wire.Hello
	HelloRaw []byte // complete hello frame (header + body + CRC)
	SnapRaw  []byte // complete snapshot frame

	off  int64  // where the entry starts in frames.jnl
	snap []byte // the snapshot frame's body, aliasing SnapRaw
}

// Bytes is the entry's total on-wire size.
func (e *JournalEntry) Bytes() int64 {
	return int64(len(e.HelloRaw) + len(e.SnapRaw))
}

// JournalReader streams one run journal's frame pairs in capture
// order. After Next returns io.EOF, Torn reports whether the file
// ended in a torn or corrupt entry (expected after a crash) and how
// many trailing bytes were unreadable.
type JournalReader struct {
	dir  string
	man  JournalManifest
	f    *os.File
	cr   *countingReader
	size int64
	good int64 // offset of the last intact frame pair
	done bool
	torn bool
}

// OpenJournal opens the journal directory dir (the per-run directory
// holding MANIFEST.json and frames.jnl). A journal whose frames were
// dropped at finalize (the default outside capture mode) opens fine
// and yields zero entries.
func OpenJournal(dir string) (*JournalReader, error) {
	mdata, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("collect: open journal: %w", err)
	}
	m, err := parseManifest(mdata)
	if err != nil {
		return nil, fmt.Errorf("collect: open journal %s: %w", dir, err)
	}
	jr := &JournalReader{dir: dir, man: *m}
	f, err := os.Open(filepath.Join(dir, framesName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			jr.done = true // finalized without capture mode: no frames left
			return jr, nil
		}
		return nil, fmt.Errorf("collect: open journal frames: %w", err)
	}
	if fi, err := f.Stat(); err == nil {
		jr.size = fi.Size()
	}
	jr.f = f
	jr.cr = &countingReader{r: f}
	return jr, nil
}

// Dir returns the journal directory the reader was opened on.
func (jr *JournalReader) Dir() string { return jr.dir }

// Manifest returns the journal's parsed manifest.
func (jr *JournalReader) Manifest() JournalManifest { return jr.man }

// Next returns the next intact frame pair, or io.EOF when the journal
// is exhausted. A torn or corrupt tail, or a pair that does not belong
// to the manifest's run, epoch and world, ends the stream with io.EOF
// and is reported through Torn.
func (jr *JournalReader) Next() (*JournalEntry, error) {
	if jr.done {
		return nil, io.EOF
	}
	ht, hraw, hbody, err := wire.ReadFrameRaw(jr.cr)
	if err != nil {
		jr.finish(!errors.Is(err, io.EOF) || jr.cr.n != jr.good)
		return nil, io.EOF
	}
	st, sraw, sbody, err := wire.ReadFrameRaw(jr.cr)
	if err != nil || ht != wire.TypeHello || st != wire.TypeSnapshot {
		jr.finish(true)
		return nil, io.EOF
	}
	h, err := wire.DecodeHello(hbody)
	if err != nil || h.RunID != jr.man.RunID || h.Epoch != jr.man.Epoch || h.WorldSize != jr.man.World {
		jr.finish(true)
		return nil, io.EOF
	}
	e := &JournalEntry{Hello: h, HelloRaw: hraw, SnapRaw: sraw, off: jr.good, snap: sbody}
	jr.good = jr.cr.n
	return e, nil
}

// ReadAll drains the reader and returns every intact entry.
func (jr *JournalReader) ReadAll() ([]*JournalEntry, error) {
	var out []*JournalEntry
	for {
		e, err := jr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// Torn reports whether the journal ended in a torn or corrupt entry,
// and how many trailing bytes were unreadable. Meaningful once Next
// has returned io.EOF.
func (jr *JournalReader) Torn() (torn bool, truncatedBytes int64) {
	return jr.torn, jr.size - jr.good
}

func (jr *JournalReader) finish(torn bool) {
	jr.done = true
	jr.torn = torn
	if jr.f != nil {
		jr.f.Close()
		jr.f = nil
	}
}

// Close releases the underlying file. Safe after EOF.
func (jr *JournalReader) Close() error {
	jr.finish(jr.torn)
	return nil
}

// countingReader tracks how many bytes a reader consumed, so the
// journal reader knows the offset of the last intact frame pair.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}

// FindJournals resolves path to the run journal directories beneath
// it, sorted by run ID. Accepts a single run's journal directory (one
// holding MANIFEST.json), a journal root full of them (OutDir/journal),
// or a collector OutDir (journal/ resolved automatically). Directories
// without a manifest are skipped, matching recovery's distrust.
func FindJournals(path string) ([]string, error) {
	if _, err := os.Stat(filepath.Join(path, manifestName)); err == nil {
		return []string{path}, nil
	}
	root := path
	if _, err := os.Stat(journalRoot(path)); err == nil {
		root = journalRoot(path)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("collect: find journals: %w", err)
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		d := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(d, manifestName)); err == nil {
			dirs = append(dirs, d)
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("collect: no run journals under %s", path)
	}
	sort.Strings(dirs)
	return dirs, nil
}
