package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func smokeConfig(t *testing.T, traced bool) config {
	return config{seed: 1, seconds: 1, smoke: true, traced: traced,
		outDir: t.TempDir(), tmpRoot: t.TempDir()}
}

func allNames() []string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return names
}

// checkResults: every workload reproduced the oracle, and every metric
// BENCHMARK.json names came out under a valid name.
func checkResults(t *testing.T, rf *resultFile, specs []metricSpec) {
	t.Helper()
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, name := range allNames() {
		res := rf.Workloads[name]
		if res == nil {
			t.Fatalf("%s: no result", name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		for _, ms := range specs {
			if !valid.MatchString(ms.Name) {
				t.Errorf("metric name %q is not valid", ms.Name)
			}
			if s, ok := res.Metrics[ms.Name]; !ok || s.N == 0 {
				t.Errorf("%s: metric %s not emitted", name, ms.Name)
			}
		}
	}
}

// TestSmoke runs all four workloads at smoke scale, untraced.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(allWorkloads))
	}
	for _, w := range sp.Workloads {
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	rf, err := runAll(sp, smokeConfig(t, false), allNames())
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, rf, sp.EndToEnd)
	for name, res := range rf.Workloads {
		for _, ms := range sp.EndToEnd {
			if res.Metrics[ms.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, ms.Name, res.Metrics[ms.Name].Value)
			}
		}
	}
}

// TestSmokeTraced runs the traced pass and checks the span file: it is
// not empty, and in every stage the layer spans account for the stage's
// time to within 15 %.
func TestSmokeTraced(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t, true)
	rf, err := runAll(sp, cfg, allNames())
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, rf, sp.PerLayer)

	data, err := os.ReadFile(filepath.Join(cfg.outDir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
			Args struct {
				SelfUs float64 `json:"self_us"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	stages := 0
	for _, ev := range doc.TraceEvents {
		if !strings.HasPrefix(ev.Name, "stage.") {
			continue
		}
		stages++
		// A stage's self time is what no layer span inside it covers.
		// Stages shorter than 200 µs are all goroutine start-up.
		if ev.Dur > 200 && ev.Args.SelfUs > 0.15*ev.Dur {
			t.Errorf("%s: %.0f of %.0f µs not covered by layer spans", ev.Name, ev.Args.SelfUs, ev.Dur)
		}
	}
	if stages == 0 {
		t.Fatal("span file holds no stage spans")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "pass_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ingest_snaps_per_s", Better: "higher", Bound: 0.10}
	s := func(v, q1, q3 float64) summary { return summary{Value: v, Q1: q1, Q3: q3, N: 10} }
	for _, c := range []struct {
		ms       metricSpec
		old, cur summary
		want     string
	}{
		{lower, s(1, 0.99, 1.01), s(1.05, 1.04, 1.06), "unchanged"},
		{lower, s(1, 0.99, 1.01), s(1.2, 1.19, 1.21), "regressed"},
		{lower, s(1, 0.99, 1.01), s(0.8, 0.79, 0.81), "improved"},
		{lower, s(1, 0.8, 1.2), s(1.2, 1.19, 1.21), "unresolved"},
		{higher, s(100, 99, 101), s(80, 79, 81), "regressed"},
		{higher, s(100, 99, 101), s(120, 119, 121), "improved"},
	} {
		if got, _, _ := verdict(c.ms, c.old, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: got %s, want %s", c.ms.Name, c.old.Value, c.cur.Value, got, c.want)
		}
	}
}
