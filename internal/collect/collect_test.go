package collect_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/leaktest"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/wire"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// traceWorkload runs a real workload on n simulated ranks with a
// tracer per rank and returns every rank's snapshot — the same state
// the collector path and the local finalize path both start from.
func traceWorkload(t testing.TB, n int) []*core.Snapshot {
	t.Helper()
	return core.Snapshots(traceTracers(t, n))
}

// traceTracers is traceWorkload's run, returning the tracers.
func traceTracers(t testing.TB, n int) []*core.Tracer {
	t.Helper()
	tracers := make([]*core.Tracer, n)
	ics := make([]mpi.Interceptor, n)
	for i := 0; i < n; i++ {
		tracers[i] = core.NewTracer(i, nil, core.Options{})
		ics[i] = tracers[i]
	}
	body, err := workloads.Get("stencil2d", 3, n)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.RunOpt(n, mpi.Options{Interceptors: ics}, func(p *mpi.Proc) {
		core.BindOOB(tracers[p.Rank()], p)
		body(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tracers
}

func startServer(t *testing.T, cfg collect.Config) *collect.Server {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	srv, err := collect.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func client(srv *collect.Server, runID string, world int) *collect.Client {
	return &collect.Client{
		Addr:  srv.Addr(),
		Run:   collect.RunInfo{RunID: runID, WorldSize: world},
		Retry: collect.RetryPolicy{Seed: 1},
	}
}

// TestArrivalOrderIrrelevant streams the same snapshots in reversed
// order into a second run: the merge tree is fixed by world size, so
// the bytes must still match.
func TestArrivalOrderIrrelevant(t *testing.T) {
	const n = 7
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})

	c1 := client(srv, "fwd", n)
	for _, s := range snaps {
		if err := c1.SendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	c2 := client(srv, "rev", n)
	for i := n - 1; i >= 0; i-- {
		if err := c2.SendSnapshot(snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	fwd, err := c1.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	rev, err := c2.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fwd, rev) {
		t.Fatal("arrival order changed the finalized trace")
	}
}

// TestStragglerSalvage holds back one rank past the deadline: the run
// must finalize as a salvage trace naming exactly the missing rank,
// with the reported ranks' call counts intact.
func TestStragglerSalvage(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{StragglerDeadline: 300 * time.Millisecond})
	c := client(srv, "straggler", n)
	for _, s := range snaps {
		if s.Rank == 2 {
			continue // rank 2 never reports
		}
		if err := c.SendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	data, err := c.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	f, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if f.Salvage == nil {
		t.Fatal("straggler run finalized without salvage info")
	}
	if len(f.Salvage.FailedRanks) != 1 || f.Salvage.FailedRanks[0] != 2 {
		t.Fatalf("failed ranks %v, want [2]", f.Salvage.FailedRanks)
	}
	if !strings.Contains(f.Salvage.Reason, "straggler deadline") {
		t.Fatalf("reason %q does not name the deadline", f.Salvage.Reason)
	}
	for r := 0; r < n; r++ {
		want := int64(0)
		if r != 2 {
			want = snaps[r].Calls
		}
		if f.Salvage.Calls[r] != want {
			t.Fatalf("salvage calls[%d] = %d, want %d", r, f.Salvage.Calls[r], want)
		}
	}
	// The reported ranks' streams decode; the straggler's is empty.
	for r := 0; r < n; r++ {
		calls, err := core.DecodeRank(f, r)
		if err != nil {
			t.Fatalf("decode rank %d: %v", r, err)
		}
		if r == 2 && len(calls) != 0 {
			t.Fatalf("straggler rank decoded %d calls", len(calls))
		}
		if r != 2 && int64(len(calls)) != snaps[r].Calls {
			t.Fatalf("rank %d decoded %d calls, want %d", r, len(calls), snaps[r].Calls)
		}
	}
	if srv.Metrics().SalvagedRuns.Load() != 1 {
		t.Fatal("salvaged-run counter not incremented")
	}
}

// TestTimingHellosRefused: a hello whose timing no trace carries (lossy
// at base 1, mode 5) is refused before its run exists, and a run
// refuses a hello whose timing is not its first hello's: another mode,
// or in lossy timing another base, base 0 being the default 1.2.
func TestTimingHellosRefused(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})
	for _, run := range []collect.RunInfo{{RunID: "base1", TimingMode: trace.TimingLossy, TimingBase: 1}, {RunID: "mode5", TimingMode: 5}} {
		c := client(srv, run.RunID, n)
		c.Run.TimingMode, c.Run.TimingBase = run.TimingMode, run.TimingBase
		if _, err := c.Collect(snaps); err == nil || !strings.Contains(err.Error(), "wire: hello") {
			t.Errorf("%s: Collect returned %v, want the hello refused", run.RunID, err)
		}
		if _, ok := srv.Run(run.RunID); ok {
			t.Errorf("%s: the collector holds the run", run.RunID)
		}
	}
	for _, run := range []struct {
		id    string
		modes []uint8
		bases []float64
		ok    []bool
	}{
		{"mixed", []uint8{0, 1, 1, 0}, []float64{0, 1.2, 0, 1.2}, []bool{true, false, false, true}},
		{"lossy", []uint8{1, 1, 1, 0}, []float64{0, 1.2, 1.5, 0}, []bool{true, true, false, false}},
	} {
		for r, s := range snaps {
			c := client(srv, run.id, n)
			c.Run.TimingMode, c.Run.TimingBase = run.modes[r], run.bases[r]
			if err := c.SendSnapshot(s); (err == nil) != run.ok[r] || err != nil && !strings.Contains(err.Error(), "timing") {
				t.Errorf("%s: rank %d (mode %d, base %v): %v", run.id, r, run.modes[r], run.bases[r], err)
			}
		}
	}
}

// TestIdempotentResend re-sends every snapshot: the duplicates must be
// acked (not errored) and merged exactly once.
func TestIdempotentResend(t *testing.T) {
	const n = 3
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})
	c := client(srv, "dup", n)
	// First rank twice before the run completes, then the rest, then
	// everything again after finalize.
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatalf("live duplicate rejected: %v", err)
	}
	for _, s := range snaps[1:] {
		if err := c.SendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range snaps {
		if err := c.SendSnapshot(s); err != nil {
			t.Fatalf("post-finalize duplicate rejected: %v", err)
		}
	}
	m := srv.Metrics()
	if got := m.IngestSnapshots.Load(); got != n {
		t.Fatalf("merged %d snapshots, want %d", got, n)
	}
	if got := m.DupSnapshots.Load(); got != n+1 {
		t.Fatalf("dedup counter %d, want %d", got, n+1)
	}
}

// flakyDialer fails the first failDials dials outright and resets the
// next failWrites connections mid-stream (the connection dies after a
// few bytes), then behaves. Both failure modes must be absorbed by
// the client's retry loop.
type flakyDialer struct {
	addr       string
	mu         sync.Mutex
	failDials  int
	failWrites int
}

func (d *flakyDialer) dial(string) (net.Conn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failDials > 0 {
		d.failDials--
		return nil, &net.OpError{Op: "dial", Err: io.ErrClosedPipe}
	}
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	if d.failWrites > 0 {
		d.failWrites--
		return &droppingConn{Conn: conn, budget: 9}, nil
	}
	return conn, nil
}

// droppingConn kills the connection after budget written bytes —
// mid-frame, so the server sees a truncated stream.
type droppingConn struct {
	net.Conn
	budget int64
}

func (c *droppingConn) Write(b []byte) (int, error) {
	rem := atomic.AddInt64(&c.budget, -int64(len(b)))
	if rem < 0 {
		c.Conn.Close()
		return 0, io.ErrClosedPipe
	}
	return c.Conn.Write(b)
}

func TestRetryAbsorbsFlakyTransport(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})
	d := &flakyDialer{addr: srv.Addr(), failDials: 3, failWrites: 3}
	c := client(srv, "flaky", n)
	c.Retry = collect.RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 42}
	c.Dial = d.dial
	if err := c.SendAll(snaps); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitTrace(); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	// Mid-stream resets may or may not have delivered a full snapshot
	// before dying; dedupe guarantees exactly n merges either way.
	if got := m.IngestSnapshots.Load(); got != n {
		t.Fatalf("merged %d snapshots, want %d", got, n)
	}
}

func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	snaps := traceWorkload(t, 1)
	c := &collect.Client{
		Addr:  "127.0.0.1:1", // nothing listens here
		Run:   collect.RunInfo{RunID: "nope", WorldSize: 1},
		Retry: collect.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 7},
	}
	start := time.Now()
	err := c.SendSnapshot(snaps[0])
	if err == nil {
		t.Fatal("send to dead address succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error %q does not report exhausted attempts", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry loop took implausibly long")
	}
}

// TestEpochSemantics: a retried producer with a higher epoch restarts
// a finished run; an epoch mismatch against a live run is rejected.
// The collector acks the last snapshot before its walk finalizes the
// run, by design, so the test waits for the trace before it sends
// epoch 1: only a finished run may restart.
func TestEpochSemantics(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})

	c0 := client(srv, "epochs", n)
	for _, s := range snaps {
		if err := c0.SendSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c0.WaitTrace(); err != nil {
		t.Fatal(err)
	}
	// Epoch 1 on the finished run: fresh instance, collects again.
	c1 := client(srv, "epochs", n)
	c1.Run.Epoch = 1
	if err := c1.SendSnapshot(snaps[0]); err != nil {
		t.Fatalf("higher epoch on finished run rejected: %v", err)
	}
	// Epoch 0 now mismatches the live epoch-1 run: rejected, no retry.
	if err := c0.SendSnapshot(snaps[1]); err == nil {
		t.Fatal("stale epoch accepted against live run")
	}
	if srv.Metrics().RejectedSnapshots.Load() == 0 {
		t.Fatal("rejection not counted")
	}
}

// TestCloseUnblocksWaiters: Close() while a waiter is parked on an
// incomplete run (no straggler deadline — the run can never finalize)
// must return promptly; the waiter errors out and its producer falls
// back to local finalize. Every incomplete run's walker ends with the
// Close, whether it has walked a batch, waits for rank 0, or waits for
// the first batch of a wide world, which builds no walk until it is in;
// nothing finalizes and no goroutine is left behind.
func TestCloseUnblocksWaiters(t *testing.T) {
	snaps := traceWorkload(t, 4)
	check := leaktest.Baseline(t)
	srv, err := collect.Start(collect.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	incomplete := []struct {
		id    string
		world int
		ranks []int
		walk  bool // a batch is in, so the run's walk is built
	}{
		{"halfrun", 2, []int{0}, true},
		{"norank0", 4, []int{1, 2, 3}, false},
		{"wide", 1 << 16, []int{0}, false},
	}
	for _, run := range incomplete {
		c := client(srv, run.id, run.world)
		for _, rank := range run.ranks {
			if err := c.SendSnapshot(snaps[rank]); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}
	for _, run := range incomplete {
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, walk := srv.RunPayloads(run.id)
			if walk == run.walk {
				break
			}
			if !run.walk || time.Now().After(deadline) {
				t.Fatalf("run %s: walk built = %v, want %v", run.id, walk, run.walk)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitErr := make(chan error, 1)
	go func() {
		w := client(srv, "halfrun", 2)
		w.Retry = collect.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Seed: 3}
		_, err := w.WaitTrace()
		waitErr <- err
	}()
	// Let the wait frame land and its handler park on the run.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().ActiveConns.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a waiter parked on an incomplete run")
	}
	if err := <-waitErr; err == nil {
		t.Fatal("waiter got a trace from an incomplete run")
	}
	for _, run := range incomplete {
		if st, _ := srv.Run(run.id); st.State != "collecting" {
			t.Errorf("run %s is %s after Close", run.id, st.State)
		}
		if _, walk := srv.RunPayloads(run.id); walk {
			t.Errorf("run %s kept its walk after Close", run.id)
		}
	}
	if m := srv.Metrics(); m.FinalizedRuns.Load()+m.SalvagedRuns.Load() != 0 {
		t.Error("a run finalized during Close")
	}
	check()
}

// TestRetentionEvictsToDisk: after Retention elapses a finalized run's
// trace bytes leave server memory, but waiters and admin fetches are
// still served — from the OutDir copy.
func TestRetentionEvictsToDisk(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{OutDir: t.TempDir(), Retention: 20 * time.Millisecond})
	c := client(srv, "evicted", n)
	remote, err := c.Collect(snaps)
	if err != nil {
		t.Fatal(err)
	}
	want := tracetest.Bytes(t, remote)
	deadline := time.Now().Add(5 * time.Second)
	for !srv.TraceEvicted("evicted") {
		if time.Now().After(deadline) {
			t.Fatal("retention never evicted the finalized run's bytes")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, ok := srv.TraceBytes("evicted")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("post-eviction fetch: ok=%v, %d bytes, want %d", ok, len(got), len(want))
	}
	st, ok := srv.Run("evicted")
	if !ok || st.TraceBytes != len(want) {
		t.Fatalf("post-eviction status reports %d trace bytes, want %d", st.TraceBytes, len(want))
	}
	// A late waiter is served from disk too.
	data, err := client(srv, "evicted", n).WaitTrace()
	if err != nil || !bytes.Equal(data, want) {
		t.Fatalf("post-eviction wait: %v, %d bytes, want %d", err, len(data), len(want))
	}
}

func TestBadRunIDRejected(t *testing.T) {
	snaps := traceWorkload(t, 1)
	srv := startServer(t, collect.Config{OutDir: t.TempDir()})
	for _, id := range []string{"../escape", "a/b", ".hidden"} {
		c := client(srv, id, 1)
		if err := c.SendSnapshot(snaps[0]); err == nil {
			t.Fatalf("run id %q accepted", id)
		}
	}
}

// TestHostileTerminalRefusedRunSurvives: a well-formed snapshot whose
// grammar names a terminal its own table does not hold is refused with
// an AckError at decode — never registered, never journaled — so it
// cannot reach finalize, where it used to kill the daemon on a relabel
// panic. The server keeps serving and the run finalizes from its
// honest ranks (the refused rank's real snapshot included) to the
// local bytes, also on the payload-spill route, whose grammar pass
// reads the journal back with the tables skipped.
func TestHostileTerminalRefusedRunSurvives(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)

	for name, cfg := range map[string]collect.Config{
		"resident":      {},
		"payload-spill": {MaxResidentSnapshots: 1},
	} {
		cfg.OutDir = t.TempDir()
		srv := startServer(t, cfg)
		c := client(srv, "hostile", n)
		for _, s := range snaps[:2] {
			if err := c.SendSnapshot(s); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		bad := *snaps[2]
		g := sequitur.New()
		g.Append(0)
		g.Append(int32(bad.Table.Len()) + 6)
		bad.Grammar = sequitur.Serialized(g.Serialize())
		err := c.SendSnapshot(&bad)
		if err == nil || !strings.Contains(err.Error(), "names terminal") {
			t.Fatalf("%s: hostile snapshot: %v, want a collector rejection naming the terminal", name, err)
		}
		if got := srv.Metrics().RejectedSnapshots.Load(); got != 1 {
			t.Fatalf("%s: rejected counter %d, want 1", name, got)
		}
		// Rank 2's real snapshot is a first arrival, not a duplicate.
		remote, err := c.Collect(snaps[2:])
		if err != nil {
			t.Fatalf("%s: run did not survive the refused frame: %v", name, err)
		}
		if got := tracetest.Bytes(t, remote); !bytes.Equal(got, want) {
			t.Fatalf("%s: collected trace differs from local finalize (%d vs %d bytes)", name, len(got), len(want))
		}
		m := srv.Metrics()
		if m.IngestSnapshots.Load() != n || m.DupSnapshots.Load() != 0 || m.FinalizedRuns.Load() != 1 {
			t.Fatalf("%s: ingested %d (want %d), duplicates %d (want 0), finalized runs %d (want 1)",
				name, m.IngestSnapshots.Load(), n, m.DupSnapshots.Load(), m.FinalizedRuns.Load())
		}
	}
}

// withEntryCount is s encoded with its CST entry 0's call count
// replaced by count.
func withEntryCount(s *core.Snapshot, count int64) []byte {
	body, tb := wire.EncodeSnapshot(s), s.Table.AppendExact(nil)
	at := bytes.Index(body, tb)
	prefix := len(binary.AppendUvarint(nil, uint64(len(tb))))
	_, k := binary.Uvarint(tb)
	l, m := binary.Uvarint(tb[k:])
	c := k + m + int(l) // entry 0's count, past the entry count and its signature
	_, old := binary.Varint(tb[c:])
	patched := binary.AppendVarint(append([]byte(nil), tb[:c]...), count)
	patched = append(patched, tb[c+old:]...)
	out := binary.AppendUvarint(append([]byte(nil), body[:at-prefix]...), uint64(len(patched)))
	return append(append(out, patched...), body[at+len(tb):]...)
}

// TestUncalledEntryRefused: a snapshot whose CST entry claims 0 or -5
// calls decodes to a table the trace reader refuses, so the collector
// refuses it with an AckError, counted, instead of finalizing a trace
// no reader can open. The run then finalizes from the rank's honest
// snapshot to a trace that reads.
func TestUncalledEntryRefused(t *testing.T) {
	snap := traceWorkload(t, 1)[0]
	srv := startServer(t, collect.Config{})
	rc, err := collect.DialRaw(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	for i, count := range []int64{0, -5} {
		runID := fmt.Sprintf("uncalled-%d", i)
		hello := wire.AppendFrame(nil, wire.TypeHello, (&wire.Hello{Version: wire.Version, RunID: runID, WorldSize: 1}).Encode())
		before := srv.Metrics().RejectedSnapshots.Load()
		ack, nack, err := rc.SendPair(hello, wire.AppendFrame(nil, wire.TypeSnapshot, withEntryCount(snap, count)))
		if err != nil || nack != nil || ack.Status != wire.AckError {
			t.Fatalf("entry of %d calls: ack %+v, nack %+v, %v; want an AckError", count, ack, nack, err)
		}
		if got := srv.Metrics().RejectedSnapshots.Load(); got != before+1 {
			t.Fatalf("entry of %d calls: rejected counter %d, want %d", count, got, before+1)
		}
		ack, _, err = rc.SendPair(hello, wire.AppendFrame(nil, wire.TypeSnapshot, wire.EncodeSnapshot(snap)))
		if err != nil || ack.Status != wire.AckOK {
			t.Fatalf("honest snapshot after the refused one: ack %+v, %v", ack, err)
		}
		data, err := rc.WaitTrace(runID)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Read(bytes.NewReader(data)); err != nil {
			t.Fatalf("run %s serves a trace the reader refuses: %v", runID, err)
		}
	}
}

// TestOverflowingCountsRefused: two snapshots of a 2-rank run whose
// CST entry 0 is one signature claiming past half of math.MaxInt64
// calls each. The first is accepted; the second, whose count would
// take the merged entry past an int64, is refused at ingest with a
// counted AckError instead of wrapping in the walk. The run then
// finalizes from rank 1's honest snapshot to a trace that reads.
func TestOverflowingCountsRefused(t *testing.T) {
	snap := traceWorkload(t, 1)[0]
	srv := startServer(t, collect.Config{})
	rc, err := collect.DialRaw(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	send := func(rank int, body []byte) *wire.Ack {
		t.Helper()
		hello := wire.AppendFrame(nil, wire.TypeHello, (&wire.Hello{Version: wire.Version, RunID: "overflow", WorldSize: 2, Rank: rank}).Encode())
		ack, nack, err := rc.SendPair(hello, wire.AppendFrame(nil, wire.TypeSnapshot, body))
		if err != nil || nack != nil {
			t.Fatalf("rank %d: nack %+v, %v", rank, nack, err)
		}
		return ack
	}
	rank1 := *snap
	rank1.Rank = 1
	half := int64(math.MaxInt64/2 + 1)
	if ack := send(0, withEntryCount(snap, half)); ack.Status != wire.AckOK {
		t.Fatalf("first hostile snapshot: ack %+v", ack)
	}
	before := srv.Metrics().RejectedSnapshots.Load()
	if ack := send(1, withEntryCount(&rank1, half)); ack.Status != wire.AckError {
		t.Fatalf("snapshot overflowing entry 0's count: ack %+v, want an AckError", ack)
	}
	if got := srv.Metrics().RejectedSnapshots.Load(); got != before+1 {
		t.Fatalf("rejected counter %d, want %d", got, before+1)
	}
	if ack := send(1, wire.EncodeSnapshot(&rank1)); ack.Status != wire.AckOK {
		t.Fatalf("honest snapshot after the refused one: ack %+v", ack)
	}
	data, err := rc.WaitTrace("overflow")
	if err != nil {
		t.Fatal(err)
	}
	f, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("the run serves a trace the reader refuses: %v", err)
	}
	if got, want := f.CST.Count(0), half+snap.Table.Count(0); got != want {
		t.Fatalf("entry 0 holds %d calls, want %d", got, want)
	}
}

func TestAdminAPI(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})
	admin := httptest.NewServer(collect.AdminHandler(srv))
	defer admin.Close()

	get := func(path string) (int, []byte) {
		resp, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(string(body), `"ok": true`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	if code, _ := get("/runs/ghost"); code != 404 {
		t.Fatalf("unknown run status %d, want 404", code)
	}

	c := client(srv, "adminrun", n)
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if code, body := get("/runs/adminrun"); code != 200 ||
		!strings.Contains(string(body), `"state": "collecting"`) ||
		!strings.Contains(string(body), `"missing"`) {
		t.Fatalf("collecting status: %d %s", code, body)
	}
	if code, _ := get("/runs/adminrun/trace"); code != 409 {
		t.Fatalf("trace of collecting run gave %d, want 409", code)
	}

	if err := c.SendSnapshot(snaps[1]); err != nil {
		t.Fatal(err)
	}
	data, err := c.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	if code, body := get("/runs/adminrun/trace"); code != 200 || !bytes.Equal(body, data) {
		t.Fatalf("downloaded trace differs (%d, %d bytes vs %d)", code, len(body), len(data))
	}
	if code, body := get("/runs"); code != 200 || !strings.Contains(string(body), `"adminrun"`) {
		t.Fatalf("run list: %d %s", code, body)
	}
	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(string(body), "pilgrim_collect_ingest_snapshots_total 2") {
		t.Fatalf("metrics: %d %s", code, body)
	}
}

// TestWaitUnknownRun: waiting on a run nobody announced fails fast
// (permanent error, no retry storm).
func TestWaitUnknownRun(t *testing.T) {
	srv := startServer(t, collect.Config{})
	c := client(srv, "never-announced", 1)
	start := time.Now()
	if _, err := c.WaitTrace(); err == nil {
		t.Fatal("wait on unknown run succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("unknown-run wait retried instead of failing fast")
	}
}

// TestGarbageConnection: raw junk on the ingest port must not wedge or
// crash the server.
func TestGarbageConnection(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(bytes.Repeat([]byte{0xAB}, 4096))
	conn.Close()
	// The server still collects a clean run afterwards.
	c := client(srv, "after-garbage", n)
	if _, err := c.Collect(snaps); err != nil {
		t.Fatal(err)
	}
}
