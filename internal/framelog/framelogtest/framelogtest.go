// Package framelogtest injects faults into a frame-pair log's file
// system, for tests.
package framelogtest

import (
	"errors"
	"path/filepath"
	"sync"

	"github.com/hpcrepro/pilgrim/internal/framelog"
)

// ErrInjected is the error every injected fault returns.
var ErrInjected = errors.New("framelogtest: injected fault")

// The operations a FaultFS can fail.
const (
	WriteFrames   = "write frames"   // an append to frames.jnl
	WriteManifest = "write manifest" // the write of a manifest's temporary file
	WriteOther    = "write other"    // a write to any other file on the FS, such as a collector's trace
	Sync          = "sync"           // any fsync
	Rename        = "rename"         // the rename that commits a manifest
	Truncate      = "truncate"       // a torn-tail repair
)

// FaultFS wraps a file system and fails the N-th operation named Op
// (counting from 1) with ErrInjected. A failing write first lands half
// its bytes, the short write a full disk or a crash mid-write leaves
// behind. Safe for concurrent use.
type FaultFS struct {
	framelog.FS
	Op string
	N  int

	mu   sync.Mutex
	seen int
}

// Hits reports how many operations named Op have been attempted.
func (f *FaultFS) Hits() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

func (f *FaultFS) fail(op string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if op != f.Op {
		return false
	}
	f.seen++
	return f.seen == f.N
}

func (f *FaultFS) OpenFile(name string, flag int) (framelog.File, error) {
	file, err := f.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	write := WriteOther
	switch filepath.Base(name) {
	case framelog.FramesName:
		write = WriteFrames
	case framelog.ManifestName + ".tmp":
		write = WriteManifest
	}
	return &faultFile{File: file, fs: f, write: write}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.fail(Rename) {
		return ErrInjected
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if f.fail(Truncate) {
		return ErrInjected
	}
	return f.FS.Truncate(name, size)
}

type faultFile struct {
	framelog.File
	fs    *FaultFS
	write string
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.fs.fail(f.write) {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, ErrInjected
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.fs.fail(Sync) {
		return ErrInjected
	}
	return f.File.Sync()
}
