package collect_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/framelog/framelogtest"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// gateFS records the operations a collector makes on its file system
// as "op file" (write, sync, rename to, remove; file is the base name),
// holds the first operation named gate until release is closed, and
// fails every operation once killed, as a dead process makes none.
type gateFS struct {
	framelog.FS
	gate    string
	held    chan struct{} // closed once the gated operation waits
	release chan struct{}

	once sync.Once
	mu   sync.Mutex
	ops  []string
	dead bool
}

func newGateFS(gate string) *gateFS {
	return &gateFS{FS: framelog.OS, gate: gate, held: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) do(op, name string) error {
	key := op + " " + filepath.Base(name)
	g.mu.Lock()
	g.ops = append(g.ops, key)
	g.mu.Unlock()
	if key == g.gate {
		g.once.Do(func() {
			close(g.held)
			<-g.release
		})
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dead {
		return framelogtest.ErrInjected
	}
	return nil
}

func (g *gateFS) kill() {
	g.mu.Lock()
	g.dead = true
	g.mu.Unlock()
}

func (g *gateFS) recorded() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.ops)
}

func (g *gateFS) MkdirAll(dir string) error {
	if err := g.do("mkdir", dir); err != nil {
		return err
	}
	return g.FS.MkdirAll(dir)
}

func (g *gateFS) OpenFile(name string, flag int) (framelog.File, error) {
	if err := g.do("open", name); err != nil {
		return nil, err
	}
	f, err := g.FS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g, name: name}, nil
}

func (g *gateFS) Rename(oldpath, newpath string) error {
	if err := g.do("rename", newpath); err != nil {
		return err
	}
	return g.FS.Rename(oldpath, newpath)
}

func (g *gateFS) Remove(name string) error {
	if err := g.do("remove", name); err != nil {
		return err
	}
	return g.FS.Remove(name)
}

func (g *gateFS) Truncate(name string, size int64) error {
	if err := g.do("truncate", name); err != nil {
		return err
	}
	return g.FS.Truncate(name, size)
}

type gateFile struct {
	framelog.File
	fs   *gateFS
	name string
}

func (f *gateFile) Write(p []byte) (int, error) {
	if err := f.fs.do("write", f.name); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *gateFile) Sync() error {
	if err := f.fs.do("sync", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestJournalGroupCommit sends 64 ranks from 8 concurrent clients while
// the journal's first write is held, as a slow disk holds it. Under
// SyncBatch the acks do not wait for the write, so the other 63 pairs
// pend and go out together: the journal makes fewer writes than it has
// pairs, frames.jnl scans to exactly the accepted pairs in an order each
// client's sends agree with, one journal.append span covers each write,
// and the trace is the local finalize's. With a small resident cap the
// walk reads the spilled payloads back through the group-committed file.
func TestJournalGroupCommit(t *testing.T) {
	const n, senders = 64, 8
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)
	for _, resident := range []int{0, 4} {
		t.Run(fmt.Sprintf("resident%d", resident), func(t *testing.T) {
			dir := t.TempDir()
			gfs := newGateFS("write " + framelog.FramesName)
			ffs := &framelogtest.FaultFS{FS: gfs, Op: framelogtest.WriteFrames, N: 0}
			sink := obs.NewSink(1 << 14)
			srv := startOnFS(t, collect.Config{OutDir: dir, JournalSync: collect.SyncBatch,
				KeepJournalFrames: true, MaxResidentSnapshots: resident, Obs: sink}, ffs)
			var wg sync.WaitGroup
			errs := make([]error, senders)
			for c := 0; c < senders; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					cl := client(srv, "group", n)
					defer cl.Close()
					for r := c; r < n && errs[c] == nil; r += senders {
						errs[c] = cl.SendSnapshot(snaps[r])
					}
				}(c)
			}
			wg.Wait()
			close(gfs.release)
			for c, err := range errs {
				if err != nil {
					t.Fatalf("sender %d: %v", c, err)
				}
			}
			cl := client(srv, "group", n)
			got, err := cl.WaitTrace()
			cl.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("group-committed run's trace differs from the local finalize")
			}
			srv.Close() // waits for the journal's queue

			jr, err := framelog.OSDir(filepath.Join(framelog.Root(dir), "group")).Open()
			if err != nil {
				t.Fatal(err)
			}
			defer jr.Close()
			pairs := jr.ReadAll()
			if torn, cut := jr.Torn(); torn || cut != 0 {
				t.Fatalf("group-committed journal torn=%v cut=%d", torn, cut)
			}
			if len(pairs) != n {
				t.Fatalf("frames.jnl holds %d pairs, want %d", len(pairs), n)
			}
			at := make([]int, n) // rank -> position in the file
			seen := make([]bool, n)
			for i, p := range pairs {
				r := p.Hello.Rank
				if r < 0 || r >= n || seen[r] {
					t.Fatalf("pair %d names rank %d twice or out of range", i, r)
				}
				seen[r], at[r] = true, i
				if !bytes.Equal(p.Body, wire.EncodeSnapshot(snaps[r])) {
					t.Fatalf("pair %d (rank %d) holds other bytes than the rank sent", i, r)
				}
			}
			for r := senders; r < n; r++ {
				if at[r] < at[r-senders] {
					t.Fatalf("rank %d is at pair %d, before rank %d (pair %d) its sender had acked",
						r, at[r], r-senders, at[r-senders])
				}
			}
			writes := ffs.Hits()
			if writes >= n {
				t.Fatalf("%d journal writes for %d pairs: no group was committed", writes, n)
			}
			var spans, frames int64
			for _, ev := range sink.EventsForRun("group") {
				if ev.Name != "journal.append" {
					continue
				}
				spans++
				for _, a := range ev.Attrs[:ev.NAttrs] {
					if a.Key == "frames" {
						frames += a.Int
					}
				}
			}
			if spans != int64(writes) || frames != n {
				t.Fatalf("%d journal.append spans covering %d frames, want %d and %d", spans, frames, writes, n)
			}
		})
	}
}

// TestTracePublishOrder checks the finalize's order on the file system
// in every sync mode: the trace is written, then fsynced (not under
// off, which never fsyncs), and only then does the terminal manifest
// commit the run and the frames go.
func TestTracePublishOrder(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	for _, mode := range []collect.SyncMode{collect.SyncAlways, collect.SyncBatch, collect.SyncOff} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			gfs := newGateFS("")
			srv := startOnFS(t, collect.Config{OutDir: dir, JournalSync: mode}, gfs)
			if _, err := client(srv, "order", n).Collect(snaps); err != nil {
				t.Fatal(err)
			}
			srv.Close() // waits for the journal's queue
			ops := gfs.recorded()
			traceWrite := slices.Index(ops, "write order.pilgrim")
			traceSync := slices.Index(ops, "sync order.pilgrim")
			manifest := lastIndex(ops, "write "+framelog.ManifestName+".tmp")
			remove := slices.Index(ops, "remove "+framelog.FramesName)
			durable := traceSync
			if mode == collect.SyncOff {
				if traceSync >= 0 {
					t.Fatalf("the trace was fsynced under off: %q", ops)
				}
				durable = traceWrite
			}
			if traceWrite < 0 || durable < traceWrite || manifest < durable || remove < manifest {
				t.Fatalf("want the trace written, fsynced, then the terminal manifest, then the frames removed; got %q", ops)
			}
			jr, err := framelog.OSDir(filepath.Join(framelog.Root(dir), "order")).Open()
			if err != nil {
				t.Fatal(err)
			}
			defer jr.Close()
			if m := jr.Manifest(); m.State != "finalized" || jr.HasFrames() {
				t.Fatalf("manifest %q, frames left %v", m.State, jr.HasFrames())
			}
		})
	}
}

func lastIndex(s []string, v string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == v {
			return i
		}
	}
	return -1
}

// TestCrashRecoveryBetweenPublishAndCommit holds the trace's fsync:
// WaitTrace must return anyway, since waiters are released before it.
// The daemon then dies before the commit (every later file operation
// fails, as after a kill), leaving the manifest collecting and the
// frames in place, and a restart replays them to the same bytes.
func TestCrashRecoveryBetweenPublishAndCommit(t *testing.T) {
	const n = 8
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)
	for _, mode := range []collect.SyncMode{collect.SyncAlways, collect.SyncBatch} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			gfs := newGateFS("sync pub.pilgrim")
			srv := startOnFS(t, collect.Config{OutDir: dir, JournalSync: mode}, gfs)
			c := client(srv, "pub", n)
			if err := c.SendAll(snaps); err != nil {
				t.Fatal(err)
			}
			type result struct {
				data []byte
				err  error
			}
			done := make(chan result, 1)
			go func() {
				data, err := c.WaitTrace()
				done <- result{data, err}
			}()
			select {
			case <-gfs.held:
			case <-time.After(30 * time.Second):
				t.Fatal("the trace was never fsynced")
			}
			var res result
			select {
			case res = <-done:
			case <-time.After(30 * time.Second):
				close(gfs.release)
				t.Fatal("WaitTrace waited for the trace's fsync")
			}
			if res.err != nil || !bytes.Equal(res.data, want) {
				t.Fatalf("trace before the commit: err %v, same bytes %v", res.err, bytes.Equal(res.data, want))
			}
			gfs.kill()
			close(gfs.release)
			srv.CrashStop()

			jr, err := framelog.OSDir(filepath.Join(framelog.Root(dir), "pub")).Open()
			if err != nil {
				t.Fatal(err)
			}
			if m := jr.Manifest(); m.State != "collecting" || !jr.HasFrames() {
				t.Fatalf("after a crash before the commit: manifest %q, frames %v", m.State, jr.HasFrames())
			}
			jr.Close()

			srv2 := startServer(t, collect.Config{OutDir: dir, JournalSync: mode})
			if rec, ok := srv2.Recovery("pub"); !ok || rec.ReplayedFrames != n {
				t.Fatalf("recovery: %+v", rec)
			}
			got, err := client(srv2, "pub", n).WaitTrace()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("trace after a crash between publish and commit differs")
			}
			onDisk, err := os.ReadFile(filepath.Join(dir, "pub.pilgrim"))
			if err != nil || !bytes.Equal(onDisk, want) {
				t.Fatalf("on-disk trace after recovery: err %v", err)
			}
		})
	}
}
