package framelog_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/framelog"
	"github.com/hpcrepro/pilgrim/internal/framelog/framelogtest"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/wire"
)

var testMan = framelog.Manifest{RunID: "fl", Epoch: 9, World: 6, TimingBase: 1.2, CreatedSec: 1.7e9, State: "collecting"}

// snapshot builds a small deterministic snapshot for rank r.
func snapshot(r int) *core.Snapshot {
	tbl := cst.New()
	g := sequitur.New()
	for i := 0; i < 8+r; i++ {
		g.Append(tbl.Add([]byte(fmt.Sprintf("r%d/%d", r, i%3)), int64(10*i)))
	}
	return &core.Snapshot{Rank: r, Calls: tbl.Calls(), Table: tbl, Grammar: sequitur.Serialized(g.Serialize())}
}

// pair is rank r's frame pair under testMan.
func pair(r int) []byte {
	h := testMan.Hello(r)
	return framelog.AppendPair(nil, &h, wire.EncodeSnapshot(snapshot(r)))
}

// writeLog creates a log under fsys holding testMan and the pairs of
// ranks, appended one per write.
func writeLog(t *testing.T, fsys framelog.FS, ranks ...int) framelog.Dir {
	t.Helper()
	d := framelog.Dir{FS: fsys, Path: t.TempDir()}
	l, err := d.Create(true)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := d.WriteManifest(&testMan, false); err != nil {
		t.Fatal(err)
	}
	for _, r := range ranks {
		if _, err := l.Write(pair(r)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func scan(t *testing.T, d framelog.Dir) (*framelog.Reader, []*framelog.Entry) {
	t.Helper()
	r, err := d.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, r.ReadAll()
}

// TestScanAndFetchAgree: the pairs a scan finds are the ones appended,
// in order and byte for byte, and fetching them back by the refs the
// scan reports decodes each to the snapshot that was appended.
func TestScanAndFetchAgree(t *testing.T) {
	order := []int{3, 0, 5, 1, 4, 2}
	d := writeLog(t, framelog.OS, order...)
	r, entries := scan(t, d)
	if torn, cut := r.Torn(); torn || cut != 0 || len(entries) != len(order) {
		t.Fatalf("%d entries, torn %v, cut %d", len(entries), torn, cut)
	}
	refs := make([]framelog.Ref, testMan.World)
	for i, e := range entries {
		if e.Hello.Rank != order[i] || !bytes.Equal(append(e.HelloRaw[:len(e.HelloRaw):len(e.HelloRaw)], e.SnapRaw...), pair(order[i])) {
			t.Fatalf("entry %d is not rank %d's pair", i, order[i])
		}
		refs[e.Hello.Rank] = e.Ref()
	}
	f, err := d.OpenFrames()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, runCap := range []int{1, 200, 0} {
		fe := framelog.Fetcher{From: f, Run: testMan.RunID, Epoch: testMan.Epoch, RunCap: runCap}
		snaps := make([]*core.Snapshot, len(refs))
		if err := fe.Fetch(0, refs, snaps); err != nil {
			t.Fatal(err)
		}
		for rank, s := range snaps {
			if !bytes.Equal(wire.EncodeSnapshot(s), wire.EncodeSnapshot(snapshot(rank))) {
				t.Fatalf("cap %d: rank %d fetched back different", runCap, rank)
			}
		}
	}
	// A zero ref leaves its slot alone; a ref asked for as another rank,
	// run or epoch is refused.
	keep := &core.Snapshot{Rank: 1}
	snaps := []*core.Snapshot{nil, keep}
	fe := framelog.Fetcher{From: f, Run: testMan.RunID, Epoch: testMan.Epoch}
	if err := fe.Fetch(0, []framelog.Ref{refs[0], {}}, snaps); err != nil || snaps[1] != keep || snaps[0].Rank != 0 {
		t.Fatalf("zero ref: err %v, slots %v", err, snaps)
	}
	for name, fe := range map[string]framelog.Fetcher{
		"rank":  {From: f, Run: testMan.RunID, Epoch: testMan.Epoch},
		"run":   {From: f, Run: "other", Epoch: testMan.Epoch},
		"epoch": {From: f, Run: testMan.RunID, Epoch: testMan.Epoch + 1},
	} {
		start := 2
		if name != "rank" {
			start = 3
		}
		if err := fe.Fetch(start, refs[3:4], make([]*core.Snapshot, 1)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d:", start)) {
			t.Errorf("foreign %s: err = %v", name, err)
		}
	}
}

// TestReaderStopsAtForeignPair: a pair of another epoch or world is
// where the log ends, reported as a torn tail, exactly like a torn
// frame.
func TestReaderStopsAtForeignPair(t *testing.T) {
	for name, h := range map[string]wire.Hello{
		"epoch": func() wire.Hello { h := testMan.Hello(1); h.Epoch++; return h }(),
		"world": func() wire.Hello { h := testMan.Hello(1); h.WorldSize++; return h }(),
		"run":   func() wire.Hello { h := testMan.Hello(1); h.RunID = "x"; return h }(),
	} {
		d := writeLog(t, framelog.OS, 0)
		l, err := d.Create(false)
		if err != nil {
			t.Fatal(err)
		}
		foreign := framelog.AppendPair(nil, &h, wire.EncodeSnapshot(snapshot(1)))
		if _, err := l.Write(foreign); err != nil {
			t.Fatal(err)
		}
		l.Close()
		r, entries := scan(t, d)
		if torn, cut := r.Torn(); len(entries) != 1 || !torn || cut != int64(len(foreign)) {
			t.Errorf("foreign %s: %d entries, torn %v, cut %d", name, len(entries), torn, cut)
		}
	}
}

// TestManifestAtomicUnderFaults fails each step of a manifest rewrite
// in turn: the write, the fsync and the rename. Each failure is
// reported, and the directory still holds the old manifest, whole.
func TestManifestAtomicUnderFaults(t *testing.T) {
	for _, op := range []string{framelogtest.WriteManifest, framelogtest.Sync, framelogtest.Rename} {
		d := writeLog(t, framelog.OS, 0, 1)
		d.FS = &framelogtest.FaultFS{FS: framelog.OS, Op: op, N: 1}
		next := testMan
		next.State, next.Reason = "salvaged", "deadline"
		if err := d.WriteManifest(&next, true); !errors.Is(err, framelogtest.ErrInjected) {
			t.Fatalf("%s fault: err = %v", op, err)
		}
		r, entries := scan(t, d)
		if got := r.Manifest(); got != testMan || len(entries) != 2 {
			t.Fatalf("%s fault: manifest %+v, %d entries", op, got, len(entries))
		}
		if err := d.WriteManifest(&next, true); err != nil {
			t.Fatal(err)
		}
		if r, _ := scan(t, d); r.Manifest() != next {
			t.Fatalf("%s fault: rewrite after the fault did not land", op)
		}
	}
}

// TestShortAppendIsATornTail: an append that lands half its pair and
// fails leaves exactly the torn tail the scan reports. Repair cuts it,
// appends resume on a reopened log, and the log scans clean again.
func TestShortAppendIsATornTail(t *testing.T) {
	for k := 1; k <= 4; k++ {
		d := framelog.Dir{FS: &framelogtest.FaultFS{FS: framelog.OS, Op: framelogtest.WriteFrames, N: k}, Path: t.TempDir()}
		l, err := d.Create(true)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteManifest(&testMan, false); err != nil {
			t.Fatal(err)
		}
		var failed error
		for r := 0; r < 4 && failed == nil; r++ {
			_, failed = l.Write(pair(r))
		}
		l.Close()
		if !errors.Is(failed, framelogtest.ErrInjected) {
			t.Fatalf("append %d: err = %v", k, failed)
		}
		r, entries := scan(t, d)
		torn, cut := r.Torn()
		if len(entries) != k-1 || !torn || cut != int64(len(pair(k-1))/2) {
			t.Fatalf("short append %d: %d entries, torn %v, cut %d", k, len(entries), torn, cut)
		}
		if err := r.Repair(); err != nil {
			t.Fatal(err)
		}
		if l, err = d.Create(false); err != nil {
			t.Fatal(err)
		}
		for rank := k - 1; rank < 4; rank++ {
			if _, err := l.Write(pair(rank)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		r, entries = scan(t, d)
		if torn, cut := r.Torn(); len(entries) != 4 || torn || cut != 0 {
			t.Fatalf("after repair %d: %d entries, torn %v, cut %d", k, len(entries), torn, cut)
		}
	}
}

// TestRepairFaultKeepsTheTail: a truncate that fails is reported, and
// the next scan still sees the same torn tail.
func TestRepairFaultKeepsTheTail(t *testing.T) {
	d := writeLog(t, &framelogtest.FaultFS{FS: framelog.OS, Op: framelogtest.Truncate, N: 1}, 0, 1)
	f, err := os.OpenFile(filepath.Join(d.Path, framelog.FramesName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	r, _ := scan(t, d)
	if err := r.Repair(); !errors.Is(err, framelogtest.ErrInjected) {
		t.Fatalf("repair: err = %v", err)
	}
	if r, entries := scan(t, d); len(entries) != 2 {
		t.Fatalf("%d entries after a failed repair", len(entries))
	} else if torn, cut := r.Torn(); !torn || cut != 3 {
		t.Fatalf("torn %v, cut %d after a failed repair", torn, cut)
	}
}

// TestMissingFramesOpenEmpty: a log whose frames were dropped opens,
// says so, and yields nothing; a directory without a manifest is not a
// log.
func TestMissingFramesOpenEmpty(t *testing.T) {
	d := writeLog(t, framelog.OS, 0)
	if err := d.RemoveFrames(); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveFrames(); err != nil {
		t.Fatalf("second RemoveFrames: %v", err)
	}
	r, entries := scan(t, d)
	if r.HasFrames() || len(entries) != 0 {
		t.Fatalf("dropped frames: HasFrames %v, %d entries", r.HasFrames(), len(entries))
	}
	if _, err := framelog.OSDir(t.TempDir()).Open(); err == nil {
		t.Fatal("a directory without a manifest opened")
	}
}

// FuzzScan: whatever frames.jnl holds, the scan never panics, its
// entries tile the intact prefix from offset 0, and the prefix alone
// scans to the same entries with nothing torn.
func FuzzScan(f *testing.F) {
	clean := append(pair(0), pair(1)...)
	f.Add(clean)
	f.Add(clean[:len(clean)-3])
	f.Add(append(append([]byte(nil), clean...), 0xff, 0xff))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frames []byte) {
		d := writeLog(t, framelog.OS)
		if err := os.WriteFile(filepath.Join(d.Path, framelog.FramesName), frames, 0o644); err != nil {
			t.Fatal(err)
		}
		r, entries := scan(t, d)
		var off int64
		for _, e := range entries {
			if e.Off != off {
				t.Fatalf("entry at %d, want %d", e.Off, off)
			}
			off += e.Bytes()
		}
		torn, cut := r.Torn()
		if off != r.Intact() || cut != int64(len(frames))-off || torn != (cut != 0) {
			t.Fatalf("intact %d, entries end %d, torn %v, cut %d of %d", r.Intact(), off, torn, cut, len(frames))
		}
		if err := r.Repair(); err != nil {
			t.Fatal(err)
		}
		r2, again := scan(t, d)
		if len(again) != len(entries) {
			t.Fatalf("repaired log: %d entries, want %d", len(again), len(entries))
		}
		if torn, cut := r2.Torn(); torn || cut != 0 {
			t.Fatalf("repaired log still torn (%d bytes)", cut)
		}
	})
}

// TestAppendPairInPlace: AppendPair encodes the hello into the frame in
// place, so a pair appended into a buffer with room allocates nothing,
// and its frames are AppendFrame's of the hello's Encode and the body,
// for a version-1 hello and a version-2 one with every trailer field
// set at its widest, the run id at its longest.
func TestAppendPairInPlace(t *testing.T) {
	body := wire.EncodeSnapshot(snapshot(3))
	v2 := wire.Hello{
		Version: wire.Version, RunID: strings.Repeat("r", wire.MaxRunID), WorldSize: wire.MaxWorldSize, Rank: wire.MaxWorldSize - 1,
		Epoch: 1<<64 - 1, TimingMode: 1, TimingBase: -1.5,
		SpanID: 1<<64 - 1, SendNs: -1 << 63, Echo: wire.ClockEcho{T1: -1 << 63, T2: 1<<63 - 1, T3: -1 << 63, T4: 1<<63 - 1},
	}
	for _, h := range []wire.Hello{{Version: 1, RunID: "v1", WorldSize: 6, Rank: 5, Epoch: 9, TimingBase: 1.2}, v2} {
		want := wire.AppendFrame(wire.AppendFrame(nil, wire.TypeHello, h.Encode()), wire.TypeSnapshot, body)
		if got := framelog.AppendPair([]byte("head"), &h, body); !bytes.Equal(got[4:], want) || string(got[:4]) != "head" {
			t.Fatalf("version %d: AppendPair wrote %d bytes, not the %d of AppendFrame's pair", h.Version, len(got)-4, len(want))
		}
		if len(h.Encode()) > wire.MaxHelloLen(len(h.RunID)) {
			t.Fatalf("version %d: a hello of %d bytes past MaxHelloLen %d", h.Version, len(h.Encode()), wire.MaxHelloLen(len(h.RunID)))
		}
		buf := make([]byte, 0, 2*len(want))
		if n := testing.AllocsPerRun(100, func() { buf = framelog.AppendPair(buf[:0], &h, body) }); n != 0 {
			t.Fatalf("version %d: AppendPair into a buffer with room allocates %v times", h.Version, n)
		}
	}
}
