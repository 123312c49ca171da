package spill

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/framelog/framelogtest"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

// mkSnapshot builds a small deterministic rank snapshot with a shared
// phase and rank-specific entries.
func mkSnapshot(r int) *core.Snapshot {
	tbl := cst.New()
	g := sequitur.New()
	for i := 0; i < 20; i++ {
		g.Append(tbl.Add([]byte(fmt.Sprintf("shared/%d", i%4)), int64(100+i)))
	}
	for i := 0; i < 3+r%5; i++ {
		g.Append(tbl.Add([]byte(fmt.Sprintf("rank%d/%d", r, i)), int64(200+i)))
	}
	return &core.Snapshot{
		Rank:    r,
		Calls:   tbl.Calls(),
		Table:   tbl,
		Grammar: sequitur.Serialized(g.Serialize()),
	}
}

// TestRoundTrip spills snapshots and fetches them back in several
// range shapes, checking each decoded snapshot is wire-identical to
// the original and that repeated fetches of the same range keep
// working.
func TestRoundTrip(t *testing.T) {
	const world = 9
	w, err := NewWriter(t.TempDir(), "rt", world, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	want := make([][]byte, world)
	// Out-of-rank-order spill: offsets are per rank, not positional.
	for _, r := range []int{4, 0, 8, 2, 6, 1, 7, 3, 5} {
		s := mkSnapshot(r)
		want[r] = wire.EncodeSnapshot(s)
		if err := w.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, rng := range [][2]int{{0, world}, {0, 1}, {8, 1}, {3, 4}, {0, world}} {
		snaps, err := w.Fetch(rng[0], rng[1])
		if err != nil {
			t.Fatalf("fetch [%d,%d): %v", rng[0], rng[0]+rng[1], err)
		}
		if len(snaps) != rng[1] {
			t.Fatalf("fetch [%d,%d): got %d snapshots", rng[0], rng[0]+rng[1], len(snaps))
		}
		for i, s := range snaps {
			r := rng[0] + i
			if s.Rank != r {
				t.Fatalf("fetch [%d,%d): rank %d at position %d", rng[0], rng[0]+rng[1], s.Rank, i)
			}
			if !bytes.Equal(wire.EncodeSnapshot(s), want[r]) {
				t.Fatalf("rank %d: fetched snapshot differs from spilled", r)
			}
		}
	}
}

func TestWriterRejectsBadAdds(t *testing.T) {
	w, err := NewWriter(t.TempDir(), "bad", 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Add(mkSnapshot(3)); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := w.Add(&core.Snapshot{Rank: -1}); err == nil {
		t.Fatal("negative rank accepted")
	}
	if err := w.Add(mkSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(mkSnapshot(1)); err == nil {
		t.Fatal("double spill of a rank accepted")
	}
	if _, err := w.Fetch(0, 2); err == nil {
		t.Fatal("fetch of a never-spilled rank succeeded")
	}
	if _, err := w.Fetch(2, 2); err == nil {
		t.Fatal("out-of-range fetch succeeded")
	}
}

// TestWriterRefusesUnsafeRunID: a run ID names the spill's directory
// and its manifest, so one framelog.ValidRunID rejects is refused
// before anything is written, by NewWriter and by FinalizeRanks, which
// would otherwise join it into SpillDir and write outside it, or write
// a manifest framelog.ParseManifest refuses.
func TestWriterRefusesUnsafeRunID(t *testing.T) {
	for _, id := range []string{"../x", "a/b", ".hidden", strings.Repeat("a", wire.MaxRunID+1), ""} {
		root := t.TempDir()
		dir := filepath.Join(root, "spill")
		if w, err := NewWriter(filepath.Join(dir, "run"), id, 1, core.Options{}); err == nil {
			w.Close()
			t.Errorf("NewWriter accepted run id %q", id)
		}
		if id != "" { // FinalizeRanks names an unnamed run "local"
			opts := core.Options{SpillDir: dir, CollectorRunID: id}
			if _, _, err := FinalizeRanks(1, func(int) *core.Snapshot { return mkSnapshot(0) }, nil, opts); err == nil {
				t.Errorf("FinalizeRanks accepted run id %q", id)
			}
		}
		if ents, _ := os.ReadDir(root); len(ents) != 0 {
			t.Errorf("run id %q: %d entries written", id, len(ents))
		}
	}
}

// TestManifestLifecycle checks the spill directory is self-describing
// through its life: collecting while open, terminal after Finish, in
// the collector journal's manifest schema.
func TestManifestLifecycle(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "life", 2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	read := func() map[string]any {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := read()
	if m["state"] != "collecting" || m["run"] != "life" || m["nranks"] != float64(2) {
		t.Fatalf("fresh manifest = %v", m)
	}
	for r := 0; r < 2; r++ {
		if err := w.Add(mkSnapshot(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish("finalized", ""); err != nil {
		t.Fatal(err)
	}
	if m := read(); m["state"] != "finalized" {
		t.Fatalf("finished manifest state = %v", m["state"])
	}
}

// TestFetchDetectsCorruption flips a byte in the frames file and
// checks the CRC-framed read fails loudly instead of decoding garbage.
func TestFetchDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, "crc", 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Add(mkSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "frames.jnl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Fetch(0, 1); err == nil {
		t.Fatal("fetch of a corrupted frame succeeded")
	}
}

// newTestWriter opens a spill of world ranks in a fresh directory.
func newTestWriter(t *testing.T, world int) (*Writer, string) {
	t.Helper()
	w, dir, _ := newCountedWriter(t, world)
	return w, dir
}

// newCountedWriter is newTestWriter on a file system that counts the
// reads and writes reaching frames.jnl.
func newCountedWriter(t *testing.T, world int) (*Writer, string, *countingFS) {
	t.Helper()
	dir := t.TempDir()
	cfs := &countingFS{FS: framelog.OS}
	w, err := newWriter(framelog.Dir{FS: cfs, Path: dir}, "t", world, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, dir, cfs
}

// countingFS counts the ReadAt and Write calls that reach frames.jnl.
type countingFS struct {
	framelog.FS
	reads, writes int
}

func (c *countingFS) OpenFile(name string, flag int) (framelog.File, error) {
	f, err := c.FS.OpenFile(name, flag)
	if err != nil || filepath.Base(name) != framelog.FramesName {
		return f, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	framelog.File
	fs *countingFS
}

func (c *countingFile) ReadAt(p []byte, off int64) (int, error) {
	c.fs.reads++
	return c.File.ReadAt(p, off)
}

func (c *countingFile) Write(p []byte) (int, error) {
	c.fs.writes++
	return c.File.Write(p)
}

// TestFetchOrderAndRunCapIndependent: whatever order the ranks were
// added in (so however the refs break into contiguous runs) and
// wherever the run cap cuts a run, a fetch returns the same snapshots.
// The cap is forced tiny so that runs of one, two and many pairs, and
// a pair larger than the cap, all occur.
func TestFetchOrderAndRunCapIndependent(t *testing.T) {
	const world = 40
	want := make([][]byte, world)
	for r := range want {
		want[r] = wire.EncodeSnapshot(mkSnapshot(r))
	}
	probe, _ := newTestWriter(t, world)
	if err := probe.Add(mkSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	pairLen := int(probe.refs[0].Len)
	orders := map[string][]int{"ranked": nil, "reversed": nil, "interleaved": nil, "shuffled": rand.New(rand.NewSource(7)).Perm(world)}
	for r := 0; r < world; r++ {
		orders["ranked"] = append(orders["ranked"], r)
		orders["reversed"] = append(orders["reversed"], world-1-r)
		orders["interleaved"] = append(orders["interleaved"], (r%2)*(world/2)+r/2) // 0, 20, 1, 21, …
	}
	for name, order := range orders {
		for _, runCap := range []int{1, pairLen, 2*pairLen + 1, 5 * pairLen, 1 << 20} {
			w, _ := newTestWriter(t, world)
			w.fetch.RunCap = runCap
			for _, r := range order {
				if err := w.Add(mkSnapshot(r)); err != nil {
					t.Fatal(err)
				}
			}
			snaps, err := w.Fetch(0, world)
			if err != nil {
				t.Fatalf("%s, cap %d: %v", name, runCap, err)
			}
			for r, s := range snaps {
				if !bytes.Equal(wire.EncodeSnapshot(s), want[r]) {
					t.Fatalf("%s, cap %d: rank %d differs from what was spilled", name, runCap, r)
				}
			}
		}
	}
}

// TestCoalescedReadNamesCorruptRank: 64 pairs come back in one read;
// one flipped byte in pair j — in its hello, its snapshot body, a CRC
// or a length field — fails the fetch with an error naming rank j, and
// a file cut short fails it too. Nothing panics.
func TestCoalescedReadNamesCorruptRank(t *testing.T) {
	const world, j = 64, 37
	w, dir, cfs := newCountedWriter(t, world)
	for r := 0; r < world; r++ {
		if err := w.Add(mkSnapshot(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Fetch(0, world); err != nil || cfs.reads != 1 {
		t.Fatalf("clean fetch: %d reads (want 1), err %v", cfs.reads, err)
	}
	path := filepath.Join(dir, framelog.FramesName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int(w.refs[j].Off)
	helloLen := int(binary.LittleEndian.Uint32(clean[off:]))
	snapOff := off + 5 + helloLen + 4
	for name, at := range map[string]int{
		"hello length":    off + 1,
		"hello body":      off + 5 + helloLen/2,
		"hello crc":       off + 5 + helloLen,
		"snapshot length": snapOff,
		"snapshot type":   snapOff + 4,
		"snapshot body":   snapOff + 5 + 20,
		"snapshot crc":    off + int(w.refs[j].Len) - 1,
	} {
		bad := append([]byte(nil), clean...)
		bad[at] ^= 0x41
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := w.Fetch(0, world)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d:", j)) {
			t.Errorf("flipped %s of rank %d: err = %v", name, j, err)
		}
	}
	for _, keep := range []int{0, 3, off + 2, len(clean) - 1} {
		if err := os.WriteFile(path, clean[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Fetch(0, world); err == nil {
			t.Errorf("fetch from a file truncated to %d of %d bytes succeeded", keep, len(clean))
		}
	}
}

// TestFinalizeIOPerBatch is the syscall evidence: a 4096-rank finalize
// in batches of 256 writes frames.jnl once per batch and never reads it
// (the walk finalizes each batch from memory), and emits one spill span
// and one cst_merge span per batch, the latter carrying the global CST
// size so far.
func TestFinalizeIOPerBatch(t *testing.T) {
	const world, batch = 4096, 256
	w, _, cfs := newCountedWriter(t, world)
	sink := obs.NewSink(1 << 12)
	opts := core.Options{MaxResidentSnapshots: batch, ObsSink: sink}
	f, st, err := w.finalize(mkSnapshot, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if max := world/batch + 1; cfs.reads != 0 || cfs.writes > max {
		t.Fatalf("%d reads and %d writes of frames.jnl, want none and at most %d", cfs.reads, cfs.writes, max)
	}
	snaps := make([]*core.Snapshot, world)
	for r := range snaps {
		snaps[r] = mkSnapshot(r)
	}
	ref, refSt := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	if !bytes.Equal(fileBytes(t, f), fileBytes(t, ref)) {
		t.Fatal("spilled finalize differs from the in-memory one")
	}
	if st.TotalCalls != refSt.TotalCalls || st.GlobalCST != refSt.GlobalCST || st.UniqueCFGs != refSt.UniqueCFGs {
		t.Fatalf("stats %+v, in-memory %+v", st, refSt)
	}
	spans := map[string]int{}
	lastCST := int64(0)
	for _, ev := range sink.Events() {
		spans[ev.Name]++
		if ev.Name == "finalize.cst_merge" {
			attrs := map[string]int64{}
			for _, a := range ev.Attrs[:ev.NAttrs] {
				attrs[a.Key] = a.Int
			}
			k := int64(spans[ev.Name] - 1)
			if attrs["start"] != k*batch || attrs["ranks"] != batch || attrs["global_cst"] < lastCST {
				t.Errorf("finalize.cst_merge #%d attrs = %v", k, attrs)
			}
			lastCST = attrs["global_cst"]
		}
	}
	if lastCST != int64(st.GlobalCST) {
		t.Errorf("last finalize.cst_merge global_cst = %d, final CST %d entries", lastCST, st.GlobalCST)
	}
	if spans["finalize.spill"] != world/batch || spans["finalize.cst_merge"] != world/batch || spans["finalize.batch_merge"] != 0 {
		t.Fatalf("spans = %v", spans)
	}
}

func fileBytes(t *testing.T, f *trace.File) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestFinalizeZeroTracers: a world of no ranks finalizes to the empty
// trace and a finalized manifest, not a panic in the walk.
func TestFinalizeZeroTracers(t *testing.T) {
	dir := t.TempDir()
	f, st, err := Finalize(nil, nil, "", core.Options{SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRanks != 0 || f.CST.Len() != 0 || st.TotalCalls != 0 {
		t.Fatalf("zero-rank finalize = %+v, %+v", f, st)
	}
	data, err := os.ReadFile(filepath.Join(dir, "local", framelog.ManifestName))
	if err != nil || !bytes.Contains(data, []byte(`"state": "finalized"`)) {
		t.Fatalf("manifest = %s, err %v", data, err)
	}
}

// TestAddRejectsOverCapSnapshot: a snapshot whose body exceeds
// wire.MaxFrame fails at Add, where the caller can still act, rather
// than at the fetch that would refuse to read it back.
func TestAddRejectsOverCapSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes a 256 MiB snapshot")
	}
	w, dir := newTestWriter(t, 1)
	s := mkSnapshot(0)
	s.RawSigs = []string{strings.Repeat("x", wire.MaxFrame)}
	s.RawTimes = [][2]int64{{0, 0}}
	if err := w.Add(s); err == nil {
		t.Fatal("over-cap snapshot accepted")
	}
	if fi, err := os.Stat(filepath.Join(dir, framelog.FramesName)); err != nil || fi.Size() != 0 {
		t.Fatalf("frames.jnl after a refused Add: %v, err %v", fi, err)
	}
	if err := w.Add(mkSnapshot(0)); err != nil {
		t.Fatalf("rank refused after its over-cap snapshot was: %v", err)
	}
}

// TestSpillIsAFrameLog: a finished spill is the collector journal's
// layout, so the frame-log reader scans it: a finalized manifest, and
// every rank's pair in rank order, intact, carrying the snapshot that
// was spilled.
func TestSpillIsAFrameLog(t *testing.T) {
	const world, batch = 10, 4
	w, dir := newTestWriter(t, world)
	if _, _, err := w.finalize(mkSnapshot, nil, core.Options{MaxResidentSnapshots: batch}); err != nil {
		t.Fatal(err)
	}
	jr, err := framelog.OSDir(dir).Open()
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if m := jr.Manifest(); m.State != "finalized" || m.World != world || m.RunID != "t" {
		t.Fatalf("manifest = %+v", m)
	}
	entries := jr.ReadAll()
	if torn, cut := jr.Torn(); torn || cut != 0 || len(entries) != world {
		t.Fatalf("%d entries, torn %v, cut %d", len(entries), torn, cut)
	}
	for r, e := range entries {
		if e.Hello.Rank != r || e.Ref() != w.refs[r] || !bytes.Equal(e.Body, wire.EncodeSnapshot(mkSnapshot(r))) {
			t.Fatalf("entry %d: rank %d, ref %+v (spilled at %+v)", r, e.Hello.Rank, e.Ref(), w.refs[r])
		}
	}
}

// TestFinalizeSurfacesAppendFault: a spill whose append fails mid-run
// fails the finalize with the fault; it never returns a trace.
func TestFinalizeSurfacesAppendFault(t *testing.T) {
	ffs := &framelogtest.FaultFS{FS: framelog.OS, Op: framelogtest.WriteFrames, N: 2}
	w, err := newWriter(framelog.Dir{FS: ffs, Path: t.TempDir()}, "fault", 12, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	f, _, err := w.finalize(mkSnapshot, nil, core.Options{MaxResidentSnapshots: 4})
	if !errors.Is(err, framelogtest.ErrInjected) || f != nil {
		t.Fatalf("finalize over a failing append: file %v, err %v", f != nil, err)
	}
}
