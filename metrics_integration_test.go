package pilgrim_test

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// TestMetricsEndpointDuringRun serves a run's collector with
// ServeMetrics and scrapes the Prometheus endpoint while ranks are
// still running: the response must carry counters from all three
// instrumented layers (tracer, mpi runtime, trace writer after
// finalize).
func TestMetricsEndpointDuringRun(t *testing.T) {
	addr := freeAddr(t)
	col := pilgrim.NewMetricsCollector()
	srv, err := pilgrim.ServeMetrics(addr, col)
	if err != nil {
		t.Fatal(err)
	}
	opts := pilgrim.Options{Collector: col}

	type scrape struct {
		body string
		err  error
	}
	mid := make(chan scrape, 1)
	go func() {
		// Poll until the endpoint is up and the tracer has counted
		// calls — that is by construction mid-run.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			body, err := httpGet("http://" + addr + "/metrics")
			if err == nil && strings.Contains(body, "pilgrim_tracer_calls_total") &&
				!strings.Contains(body, "pilgrim_tracer_calls_total 0\n") {
				mid <- scrape{body: body}
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		mid <- scrape{err: io.EOF}
	}()

	body := workloads.Stencil2D(workloads.StencilConfig{Iters: 3000})
	_, stats, err := pilgrim.RunSim(9, opts, mpi.Options{}, body)
	srv.Close()
	if err != nil {
		t.Fatal(err)
	}
	s := <-mid
	if s.err != nil {
		t.Fatal("never scraped a live /metrics with nonzero tracer calls")
	}
	for _, family := range []string{
		"pilgrim_tracer_calls_total", // tracer layer
		"pilgrim_tracer_post_ns",     // tracer overhead histogram
		"pilgrim_mpi_messages_total", // runtime layer
		"pilgrim_tracer_cst_entries", // live probe gauge
	} {
		if !strings.Contains(s.body, family) {
			t.Errorf("mid-run scrape missing %s:\n%s", family, s.body[:min(len(s.body), 2000)])
		}
	}

	// The final report covers the writer layer too.
	if stats.Metrics == nil {
		t.Fatal("FinalizeStats.Metrics nil with a collector attached")
	}
	if stats.Metrics.Counters["pilgrim_tracer_calls_total"] != stats.TotalCalls {
		t.Fatalf("metrics calls %d != stats calls %d",
			stats.Metrics.Counters["pilgrim_tracer_calls_total"], stats.TotalCalls)
	}
	if got := stats.Metrics.Gauges["pilgrim_trace_bytes"]; got != float64(stats.TraceBytes) {
		t.Fatalf("trace bytes gauge %v != stats %d", got, stats.TraceBytes)
	}
	if stats.Metrics.Gauges["pilgrim_trace_compression_ratio"] <= 1 {
		t.Fatalf("compression ratio %v, want > 1", stats.Metrics.Gauges["pilgrim_trace_compression_ratio"])
	}
	if mpiMsgs := sumPrefixed(stats.Metrics.Counters, "pilgrim_mpi_messages_total{"); mpiMsgs == 0 {
		t.Fatal("no per-rank mpi message counters in final report")
	}

	// The server must be gone once closed.
	if _, err := httpGet("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics server still up after Close")
	}
}

// TestRunSimNoMetricsByDefault pins the disabled default: no collector,
// no report.
func TestRunSimNoMetricsByDefault(t *testing.T) {
	body := workloads.Stencil2D(workloads.StencilConfig{Iters: 5})
	_, stats, err := pilgrim.Run(4, pilgrim.Options{}, body)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Metrics != nil {
		t.Fatal("Metrics non-nil without a collector")
	}
}

// TestCollectorAcrossRuns reuses one collector for two runs: counters
// accumulate, probe gauges only reflect live tracers (zero after both
// runs detach their probes).
func TestCollectorAcrossRuns(t *testing.T) {
	col := pilgrim.NewMetricsCollector()
	body := workloads.Stencil2D(workloads.StencilConfig{Iters: 10})
	_, stats1, err := pilgrim.Run(4, pilgrim.Options{Collector: col}, body)
	if err != nil {
		t.Fatal(err)
	}
	_, stats2, err := pilgrim.Run(4, pilgrim.Options{Collector: col}, body)
	if err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	want := stats1.TotalCalls + stats2.TotalCalls
	if got := rep.Counters["pilgrim_tracer_calls_total"]; got != want {
		t.Fatalf("accumulated calls = %d, want %d", got, want)
	}
	// Probes were removed on return; after the cache window the live
	// gauges must read zero, not the dead tracers' state.
	time.Sleep(25 * time.Millisecond)
	rep = col.Report()
	if got := rep.Gauges["pilgrim_tracer_cst_entries"]; got != 0 {
		t.Fatalf("live CST gauge = %v after runs finished", got)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func httpGet(url string) (string, error) {
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func sumPrefixed(m map[string]int64, prefix string) int64 {
	var n int64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}
