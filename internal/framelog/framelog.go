// Package framelog is the one frame-pair log of the pipeline: the
// on-disk layout the collector's run journal and the local spill share,
// and the only code that writes or reads it. A log is a directory
// holding
//
//   - MANIFEST.json, the run's identity and state (Manifest), replaced
//     atomically: a temporary file, an optional fsync, a rename;
//   - frames.jnl, one (Hello, Snapshot) wire frame pair per snapshot,
//     in exactly the wire framing, CRC32C trailers and all, appended in
//     order.
//
// Writers append AppendPair's bytes to the file Dir.Create opens; the
// bounded-memory finalizes read pairs back by their Ref through a
// Fetcher; recovery, pilgrim-dump -journal
// and pilgrim-loadgen scan a log front to back through a Reader, which
// stops at the first torn or foreign pair. Every file operation goes
// through an FS, so a test can count the I/O or inject a fault at any
// write, fsync or rename.
package framelog

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

const (
	// ManifestName and FramesName are the two files of a log directory.
	ManifestName = "MANIFEST.json"
	FramesName   = "frames.jnl"
)

// FS is the file system a log lives on. OS is the real one; tests wrap
// it to count I/O or to fail an operation.
type FS interface {
	MkdirAll(dir string) error
	// OpenFile opens name with os.OpenFile's flags, creating it 0o644.
	OpenFile(name string, flag int) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
}

// File is an open log file; *os.File is one.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	Sync() error
	Close() error
	Stat() (fs.FileInfo, error)
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err // a nil *os.File must not become a non-nil File
	}
	return f, nil
}
func (osFS) ReadFile(name string) ([]byte, error)   { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Manifest is a run's durable identity, MANIFEST.json: written when the
// log is created and rewritten when the run ends. A reader trusts
// nothing else: a directory without a parseable manifest is not a log.
type Manifest struct {
	RunID      string  `json:"run"`
	Epoch      uint64  `json:"epoch"`
	World      int     `json:"nranks"`
	TimingMode uint8   `json:"timing_mode"`
	TimingBase float64 `json:"timing_base"`
	CreatedSec float64 `json:"created_unix"`
	State      string  `json:"state"` // collecting | finalized | salvaged | failed
	Reason     string  `json:"reason,omitempty"`
}

// Hello is the hello frame every pair of the manifest's run carries,
// for the given rank.
func (m *Manifest) Hello(rank int) wire.Hello {
	return wire.Hello{
		Version:    wire.Version,
		RunID:      m.RunID,
		WorldSize:  m.World,
		Rank:       rank,
		Epoch:      m.Epoch,
		TimingMode: m.TimingMode,
		TimingBase: m.TimingBase,
	}
}

// ValidRunID rejects run identifiers that could escape the directory a
// log is named after, or that the wire layer would not carry.
func ValidRunID(id string) bool {
	if len(id) > wire.MaxRunID {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return id != "" && id[0] != '.'
}

// ParseManifest decodes and validates manifest bytes with the same
// distrust as the wire decoders: a log directory is an input its reader
// did not necessarily write (crashes truncate, operators edit).
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("framelog: manifest: %w", err)
	}
	if !ValidRunID(m.RunID) {
		return nil, fmt.Errorf("framelog: manifest run id %q invalid", m.RunID)
	}
	if m.World < 1 || m.World > wire.MaxWorldSize {
		return nil, fmt.Errorf("framelog: manifest world size %d outside [1,%d]", m.World, wire.MaxWorldSize)
	}
	switch m.State {
	case "collecting", "finalized", "salvaged", "failed":
	default:
		return nil, fmt.Errorf("framelog: manifest state %q unknown", m.State)
	}
	if math.IsNaN(m.TimingBase) || math.IsInf(m.TimingBase, 0) || m.TimingBase < 0 {
		return nil, fmt.Errorf("framelog: manifest timing base %v implausible", m.TimingBase)
	}
	if err := trace.CheckTiming(m.TimingMode, trace.DefaultBase(m.TimingBase)); err != nil {
		return nil, fmt.Errorf("framelog: manifest: %w", err)
	}
	if math.IsNaN(m.CreatedSec) || math.IsInf(m.CreatedSec, 0) {
		return nil, fmt.Errorf("framelog: manifest created time %v implausible", m.CreatedSec)
	}
	return &m, nil
}

// Dir is one log directory on a file system.
type Dir struct {
	FS   FS
	Path string
}

// OSDir is the log directory path on the real file system.
func OSDir(path string) Dir { return Dir{FS: OS, Path: path} }

func (d Dir) frames() string { return filepath.Join(d.Path, FramesName) }

// WriteManifest replaces the directory's manifest with m atomically: a
// crash at any step leaves the old manifest or the new one, never a
// torn one. sync fsyncs the new manifest before the rename.
func (d Dir) WriteManifest(m *Manifest, sync bool) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("framelog: manifest: %w", err)
	}
	tmp := filepath.Join(d.Path, ManifestName+".tmp")
	f, err := d.FS.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return fmt.Errorf("framelog: manifest: %w", err)
	}
	_, werr := f.Write(append(data, '\n'))
	if werr == nil && sync {
		werr = f.Sync()
	}
	if err := f.Close(); werr == nil {
		werr = err
	}
	if werr == nil {
		werr = d.FS.Rename(tmp, filepath.Join(d.Path, ManifestName))
	}
	if werr != nil {
		return fmt.Errorf("framelog: manifest: %w", werr)
	}
	return nil
}

// RemoveFrames drops the directory's frames.jnl, keeping its manifest;
// a log whose frames are already gone is not an error.
func (d Dir) RemoveFrames() error {
	if err := d.FS.Remove(d.frames()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("framelog: %w", err)
	}
	return nil
}

// OpenFrames opens frames.jnl read-only, for a Fetcher beside a Log
// whose handle belongs to another goroutine.
func (d Dir) OpenFrames() (File, error) {
	f, err := d.FS.OpenFile(d.frames(), os.O_RDONLY)
	if err != nil {
		return nil, fmt.Errorf("framelog: %w", err)
	}
	return f, nil
}

// Root is where a collector keeps its run logs under its output
// directory: one log per run, named after the run ID.
func Root(outDir string) string { return filepath.Join(outDir, "journal") }

// Find resolves path to the log directories beneath it, sorted: a
// single log directory (one holding MANIFEST.json), a directory of them
// (a collector's Root), or a collector output directory (Root resolved
// automatically). Directories without a manifest are skipped.
func Find(path string) ([]string, error) {
	if _, err := os.Stat(filepath.Join(path, ManifestName)); err == nil {
		return []string{path}, nil
	}
	root := path
	if _, err := os.Stat(Root(path)); err == nil {
		root = Root(path)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("framelog: find: %w", err)
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		d := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(d, ManifestName)); err == nil {
			dirs = append(dirs, d)
		}
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("framelog: no run journals under %s", path)
	}
	sort.Strings(dirs)
	return dirs, nil
}
