package collect_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
)

// spanCount counts the sink's events called name; with attr set, only
// those carrying that attribute.
func spanCount(sink *obs.Sink, name, attr string) int {
	n := 0
	for _, ev := range sink.Events() {
		if ev.Name != name {
			continue
		}
		has := attr == ""
		for _, a := range ev.Attrs[:ev.NAttrs] {
			has = has || a.Key == attr
		}
		if has {
			n++
		}
	}
	return n
}

func activeConns(srv *collect.Server) int64 { return int64(srv.Metrics().ActiveConns.Load()) }

// waitConnsDrained polls until the server has no open ingest connection.
func waitConnsDrained(t *testing.T, srv *collect.Server) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); activeConns(srv) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after the client released its own", activeConns(srv))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHeldConnectionsBoundedBySenders: 8 senders push 64 snapshots
// each through one Client. The client opens one connection per sender
// and no more, WaitTrace releases them all, and the trace is the one a
// local finalize produces.
func TestHeldConnectionsBoundedBySenders(t *testing.T) {
	const senders, each = 8, 64
	const n = senders * each
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)

	srv := startServer(t, collect.Config{})
	var dials atomic.Int64
	c := client(srv, "held", n)
	c.Dial = countingDialer(&dials)

	var peak atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if v := activeConns(srv); v > peak.Load() {
					peak.Store(v)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += senders {
				errs <- c.SendSnapshot(snaps[i])
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if v := activeConns(srv); v > senders {
		t.Fatalf("%d connections open after %d senders finished", v, senders)
	}
	got, err := c.WaitTrace()
	close(stop)
	sampler.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("collected trace differs from local finalize: %d vs %d bytes", len(got), len(want))
	}
	if d := dials.Load(); d > senders {
		t.Fatalf("client dialed %d times for %d senders", d, senders)
	}
	if p := peak.Load(); p > senders {
		t.Fatalf("server saw %d concurrent connections from %d senders", p, senders)
	}
	waitConnsDrained(t, srv)
}

// TestStaleConnectionRedialsSilently: the collector's IdleTimeout
// drops a held connection while the producer computes. The next send
// finds it dead, redials at once, and succeeds — no retry logged, no
// backoff slept.
func TestStaleConnectionRedialsSilently(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	sink := obs.NewSink(256)
	srv := startServer(t, collect.Config{IdleTimeout: 50 * time.Millisecond})
	var retries atomic.Int64
	c := client(srv, "stale", n)
	c.Obs = sink
	c.Logf = func(string, ...any) { retries.Add(1) }
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	waitConnsDrained(t, srv) // the server hung up on the idle connection
	if err := c.SendSnapshot(snaps[1]); err != nil {
		t.Fatalf("send on a stale held connection: %v", err)
	}
	if retries.Load() != 0 || spanCount(sink, "client.backoff", "") != 0 {
		t.Fatalf("stale redial cost %d logged retries and %d backoffs, want none",
			retries.Load(), spanCount(sink, "client.backoff", ""))
	}
	if d, r := spanCount(sink, "client.dial", ""), spanCount(sink, "client.send", "reused"); d != 2 || r != 1 {
		t.Fatalf("%d dials and %d reused sends, want 2 and 1 (the one that found the connection dead)", d, r)
	}
	if _, err := c.WaitTrace(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Metrics().IngestSnapshots.Load(); got != n {
		t.Fatalf("merged %d snapshots, want %d", got, n)
	}
}

// TestCollectorRestartBetweenSends: the collector dies and comes back
// (journal on) under a client holding a connection to the old process.
// Both a re-send of the snapshot whose ack the crash may have eaten and
// a new snapshot go through on the first attempt; the re-send is
// accounted as a duplicate.
func TestCollectorRestartBetweenSends(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	local, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
	want := tracetest.Bytes(t, local)

	dir := t.TempDir()
	srv := startServer(t, collect.Config{OutDir: dir, JournalSync: collect.SyncAlways})
	var retries atomic.Int64
	c := client(srv, "restart", n)
	c.Logf = func(string, ...any) { retries.Add(1) }
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	srv.CrashStop()
	srv2 := startServer(t, collect.Config{Listen: srv.Addr(), OutDir: dir, JournalSync: collect.SyncAlways})
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatalf("re-send after restart: %v", err)
	}
	if err := c.SendSnapshot(snaps[1]); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	if retries.Load() != 0 {
		t.Fatalf("restart cost %d logged retries, want none", retries.Load())
	}
	if dups := srv2.Metrics().DupSnapshots.Load(); dups != 1 {
		t.Fatalf("%d duplicates accounted, want 1 (the re-send of rank 0)", dups)
	}
	got, err := c.WaitTrace()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("trace collected across a restart differs from local finalize")
	}
}

// TestNackedConnectionNotHeld: a max-conns refusal is a typed,
// permanent error on the first attempt, and the refused connection is
// not kept — the send after the slot frees dials afresh.
func TestNackedConnectionNotHeld(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{MaxConns: 1})
	hog, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	for wait := time.Now().Add(2 * time.Second); activeConns(srv) < 1; {
		if time.Now().After(wait) {
			t.Fatal("hog connection never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sink := obs.NewSink(256)
	var dials atomic.Int64
	c := client(srv, "nacked", n)
	c.Obs = sink
	c.Dial = countingDialer(&dials)
	err = c.SendSnapshot(snaps[0])
	if !collect.IsOverLimit(err) {
		t.Fatalf("send through a full collector: %v, want an over-limit error", err)
	}
	if dials.Load() != 1 {
		t.Fatalf("over-limit send dialed %d times, want 1", dials.Load())
	}
	hog.Close()
	waitConnsDrained(t, srv)
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatalf("send after the slot freed: %v", err)
	}
	if d, r := dials.Load(), spanCount(sink, "client.send", "reused"); d != 2 || r != 0 {
		t.Fatalf("%d dials, %d sends on a held connection; want 2 and 0: the refused connection was kept", d, r)
	}
	c.Close()
	waitConnsDrained(t, srv)
}

// TestCloseDeliversClockSample: a producer that ships one snapshot and
// closes without waiting still gets its one completed hello/ack timing
// sample to the collector, and leaves no connection behind.
func TestCloseDeliversClockSample(t *testing.T) {
	snaps := traceWorkload(t, 2)
	srv := startServer(t, collect.Config{})
	c := client(srv, "oneshot", 2)
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if h, _ := srv.Health("oneshot"); h.ClockSamples != 0 {
		t.Fatalf("%d clock samples before the client had a hello to carry one", h.ClockSamples)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitConnsDrained(t, srv)
	if h, _ := srv.Health("oneshot"); h.ClockSamples != 1 {
		t.Fatalf("%d clock samples after Close, want 1", h.ClockSamples)
	}
}

// BenchmarkClientSendSnapshot is one acked snapshot over loopback on a
// warm held connection: every iteration is a new rank of one run, so
// the collector does a real ingest (decode, merge) each time.
func BenchmarkClientSendSnapshot(b *testing.B) {
	snaps := traceWorkload(b, 2)
	srv, err := collect.Start(collect.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := &collect.Client{Addr: srv.Addr(), Run: collect.RunInfo{RunID: fmt.Sprintf("bench-%d", b.N), WorldSize: b.N + 1}}
	defer c.Close()
	s := *snaps[0]
	s.Rank = b.N
	if err := c.SendSnapshot(&s); err != nil { // dial outside the timed region
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Rank = i
		if err := c.SendSnapshot(&s); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStartRefusesBadConfig: Start fails, before it listens, on a
// config no server can run with — a journal sync mode it does not
// know, or a negative timeout or cap, which it once took for "off" or
// (an idle timeout) for a read deadline in the past that reset every
// connection — and starts with the zero values, which are defaults or
// no cap. Retention and AwaitStragglers keep their documented negative
// meaning.
func TestStartRefusesBadConfig(t *testing.T) {
	for name, cfg := range map[string]collect.Config{
		"unknown sync mode":           {JournalSync: "sometimes"},
		"negative resident cap":       {MaxResidentSnapshots: -1},
		"negative idle timeout":       {IdleTimeout: -time.Second},
		"negative straggler deadline": {StragglerDeadline: -time.Second},
		"negative journal lag warn":   {JournalLagWarn: -time.Second},
		"negative max runs":           {MaxRuns: -1},
		"negative max run bytes":      {MaxRunBytes: -1},
		"negative max conns":          {MaxConns: -1},
	} {
		cfg.Listen, cfg.OutDir = "127.0.0.1:0", t.TempDir()
		if srv, err := collect.Start(cfg); err == nil {
			srv.Close()
			t.Errorf("%s: started", name)
		}
	}
	for _, cfg := range []collect.Config{{}, {Retention: -1, AwaitStragglers: -1}} {
		cfg.Listen, cfg.OutDir = "127.0.0.1:0", t.TempDir()
		srv, err := collect.Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
	}
}
