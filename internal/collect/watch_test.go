package collect_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/obs"
)

// sseEvent is one decoded server-sent event from a /watch stream.
type sseEvent struct {
	Type string
	Data map[string]any
}

// readSSE consumes a /watch response body until wantTerminal returns
// true for some event (or the stream ends), returning everything read.
func readSSE(t *testing.T, body *bufio.Scanner, done func(sseEvent) bool) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = map[string]any{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad SSE data: %v", err)
			}
		case line == "":
			if cur.Type != "" || cur.Data != nil {
				out = append(out, cur)
				if done != nil && done(cur) {
					return out
				}
				cur = sseEvent{}
			}
		}
	}
	return out
}

// TestWatchStreamsRunLifecycle subscribes to the fleet /watch stream
// before a run starts and asserts the full event sequence: admission,
// phase transitions ending in "finalized", with the terminal phase
// event carrying an attached health snapshot.
func TestWatchStreamsRunLifecycle(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})
	admin := httptest.NewServer(collect.AdminHandler(srv))
	defer admin.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", admin.URL+"/watch", nil)
	resp, err := admin.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/watch status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("/watch Content-Type %q", ct)
	}

	// Drive a run while the subscriber is attached.
	go func() {
		c := client(srv, "watched", n)
		for _, s := range snaps {
			c.SendSnapshot(s)
		}
	}()

	events := readSSE(t, bufio.NewScanner(resp.Body), func(ev sseEvent) bool {
		return ev.Type == "phase" && ev.Data["phase"] == "finalized"
	})

	var sawAdmitted, sawIngesting, sawFinalized bool
	for _, ev := range events {
		if ev.Data["run"] != "watched" {
			continue
		}
		switch {
		case ev.Type == "run-admitted":
			sawAdmitted = true
		case ev.Type == "phase" && ev.Data["phase"] == "ingesting":
			sawIngesting = true
		case ev.Type == "phase" && ev.Data["phase"] == "finalized":
			sawFinalized = true
			// Terminal phase events carry the final health snapshot.
			h, ok := ev.Data["health"].(map[string]any)
			if !ok {
				t.Fatal("terminal phase event has no health payload")
			}
			if h["ranks_seen"] != float64(n) {
				t.Fatalf("terminal health ranks_seen %v, want %d", h["ranks_seen"], n)
			}
		}
	}
	if !sawAdmitted || !sawIngesting || !sawFinalized {
		t.Fatalf("lifecycle incomplete: admitted=%v ingesting=%v finalized=%v (%d events)",
			sawAdmitted, sawIngesting, sawFinalized, len(events))
	}
}

// TestWatchScopedStream: /runs/{id}/watch sees only its run and opens
// with an initial health event for an already-known run.
func TestWatchScopedStream(t *testing.T) {
	const n = 2
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})
	admin := httptest.NewServer(collect.AdminHandler(srv))
	defer admin.Close()

	// Start run A with one of two ranks so it exists but stays live.
	ca := client(srv, "run-a", n)
	if err := ca.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", admin.URL+"/runs/run-a/watch", nil)
	resp, err := admin.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Noise on another run, then finish run A.
	go func() {
		cb := client(srv, "run-b", 1)
		cb.SendSnapshot(snaps[0])
		ca.SendSnapshot(snaps[1])
	}()

	events := readSSE(t, bufio.NewScanner(resp.Body), func(ev sseEvent) bool {
		return ev.Type == "phase" && ev.Data["phase"] == "finalized"
	})
	if len(events) == 0 {
		t.Fatal("scoped watch saw nothing")
	}
	// First event is the initial health snapshot of the existing run.
	if events[0].Type != "health" || events[0].Data["run"] != "run-a" {
		t.Fatalf("first scoped event = %s/%v, want initial health for run-a",
			events[0].Type, events[0].Data["run"])
	}
	for _, ev := range events {
		if ev.Data["run"] != "run-a" {
			t.Fatalf("scoped stream leaked event for run %v", ev.Data["run"])
		}
	}
}

// TestAwaitStragglersPhase: a quiet, incomplete run flips to
// awaiting-stragglers after the idle window, and back to ingesting
// when a straggler shows up.
func TestAwaitStragglersPhase(t *testing.T) {
	const n = 3
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{AwaitStragglers: 50 * time.Millisecond})

	c := client(srv, "slowrun", n)
	if err := c.SendSnapshot(snaps[0]); err != nil {
		t.Fatal(err)
	}
	waitPhase := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			h, ok := srv.Health("slowrun")
			if ok && h.Phase == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("run never reached phase %q (at %q)", want, h.Phase)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitPhase("awaiting-stragglers")
	// A straggler arriving flips it back to ingesting (and re-arms).
	if err := c.SendSnapshot(snaps[1]); err != nil {
		t.Fatal(err)
	}
	waitPhase("awaiting-stragglers")
	// The last rank completes the run.
	if err := c.SendSnapshot(snaps[2]); err != nil {
		t.Fatal(err)
	}
	waitPhase("finalized")
}

// TestSpanContextPropagation runs client and collector against the
// same flight recorder and asserts the cross-process link the wire
// trailer exists for: every collector ingest.decode span carries a
// parent_span attribute matching some client.send span's span_id. The
// walk is not per rank: its ingest.walk spans cover the ranks once, in
// rank order, each naming its start, ranks and global CST size.
func TestSpanContextPropagation(t *testing.T) {
	const n = 4
	snaps := traceWorkload(t, n)
	sink := obs.NewSink(4096)
	srv := startServer(t, collect.Config{Obs: sink})
	c := client(srv, "linked", n)
	c.Obs = sink
	if _, err := c.Collect(snaps); err != nil {
		t.Fatal(err)
	}

	sendIDs := map[int64]bool{}
	for _, ev := range sink.Events() {
		if ev.Name != "client.send" {
			continue
		}
		for _, a := range ev.Attrs[:ev.NAttrs] {
			if a.Key == obs.AttrSpanID {
				sendIDs[a.Int] = true
			}
		}
	}
	if len(sendIDs) != n {
		t.Fatalf("found %d client.send span IDs, want %d", len(sendIDs), n)
	}
	linked, walked := 0, 0
	for _, ev := range sink.Events() {
		attrs := map[string]int64{}
		for _, a := range ev.Attrs[:ev.NAttrs] {
			attrs[a.Key] = a.Int
		}
		switch ev.Name {
		case "ingest.decode":
			if id, ok := attrs[obs.AttrParentSpan]; ok {
				if !sendIDs[id] {
					t.Fatalf("%s parent_span %d matches no client.send span", ev.Name, id)
				}
				linked++
			}
		case "ingest.walk":
			if attrs["start"] != int64(walked) || attrs["ranks"] < 1 || attrs["global_cst"] < 1 {
				t.Fatalf("ingest.walk attrs %v after %d walked ranks", attrs, walked)
			}
			walked += int(attrs["ranks"])
		case "ingest.merge", "ingest.queue_wait":
			t.Fatalf("span %s still recorded", ev.Name)
		}
	}
	// Every rank's decode span must link back, and the walk covers them.
	if linked != n || walked != n {
		t.Fatalf("%d linked ingest.decode spans and %d walked ranks, want %d", linked, walked, n)
	}

	// And BuildDoc renders those links as Chrome trace flow arrows.
	doc := sink.TraceDoc()
	var starts, finishes int
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "flow" {
			continue
		}
		switch ev.Ph {
		case "s":
			starts++
		case "f":
			finishes++
		}
	}
	if starts == 0 || finishes == 0 {
		t.Fatalf("trace doc has %d flow starts / %d finishes, want both > 0", starts, finishes)
	}

	// The propagated exchange also fed the e2e latency histogram: the
	// echo flush trails the last ack, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Metrics().E2eLatency.Snapshot().Count == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Metrics().E2eLatency.Snapshot().Count == 0 {
		t.Fatal("no e2e latency samples after a full obs-enabled run")
	}
	h, _ := srv.Health("linked")
	if h.ClockSamples == 0 {
		t.Fatal("clock estimator saw no samples from a v2 run")
	}
}

// TestStalledWatcherDoesNotBlockIngest attaches a subscriber that
// never reads and pushes a full run through: ingest must complete
// normally and the drop counter accounts for the unread backlog.
func TestStalledWatcherDoesNotBlockIngest(t *testing.T) {
	const n = 8
	snaps := traceWorkload(t, n)
	srv := startServer(t, collect.Config{})
	admin := httptest.NewServer(collect.AdminHandler(srv))
	defer admin.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", admin.URL+"/watch", nil)
	resp, err := admin.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() // never read from: the subscriber is stalled

	done := make(chan error, 1)
	go func() {
		_, err := client(srv, "stalled-watcher", n).Collect(snaps)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest blocked behind a stalled /watch subscriber")
	}
}
