// Command bench is the repository's benchmark: it records application
// call streams once, then replays them through the tracing pipeline
// (trace, snapshot, finalize, ship to a collector, decode) and reports
// end-to-end metrics (-trace 0) or per-layer metrics (-trace 1). See
// README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// spec is BENCHMARK.json: the metric names, units, directions and
// bounds live there and nowhere else.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json from the checkout root or from inside
// the benchmark's own directory.
func loadSpec() (*spec, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// result is one workload's line: the contract's four keys, with the
// sample count and quartiles beside every value for -compare.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed      int64              `json:"seed"`
	Scale     string             `json:"scale"`
	Trace     int                `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

type config struct {
	seed    int64
	seconds float64
	smoke   bool // test size, one pass whatever the clock says
	traced  bool
	outDir  string
	tmpRoot string
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four, one after another)")
		seed         = flag.Int64("seed", 1, "seed of the recording run (mpi.Options.Seed)")
		seconds      = flag.Float64("seconds", 0, "measured seconds per workload (default: run_seconds of BENCHMARK.json)")
		traceFlag    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
		scale        = flag.String("scale", "full", "full or smoke (<= 64 ranks, one pass)")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result.json and spans.json")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare old.json new.json"))
		}
		os.Exit(compareFiles(sp, flag.Arg(0), flag.Arg(1)))
	}
	cfg := config{seed: *seed, seconds: *seconds, smoke: *scale == "smoke", traced: *traceFlag == 1,
		outDir: *outDir, tmpRoot: filepath.Join(".bench_build", "tmp")}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	var names []string
	if *workloadName != "" {
		if findWorkload(*workloadName) == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		names = []string{*workloadName}
	} else {
		for _, w := range allWorkloads {
			names = append(names, w.name)
		}
	}
	rf, err := runAll(sp, cfg, names)
	if err != nil {
		fatal(err)
	}
	last := mergeResults(rf, names)
	fmt.Println(lastLine(last))
	if !last.Correct {
		os.Exit(1)
	}
}

// lastLine is the contract's result object: four keys, and value and
// unit for every metric.
func lastLine(r *result) string {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]vu{}
	for k, s := range r.Metrics {
		ms[k] = vu{s.Value, s.Unit}
	}
	line, _ := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms})
	return string(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs the named workloads one after another, prints every
// metric, and writes the result file (and the span file when traced).
func runAll(sp *spec, cfg config, names []string) (*resultFile, error) {
	rf := &resultFile{Seed: cfg.seed, Scale: "full", Workloads: map[string]*result{}}
	if cfg.smoke {
		rf.Scale = "smoke"
	}
	specs := sp.EndToEnd
	var log *spanLog
	if cfg.traced {
		rf.Trace, specs, log = 1, sp.PerLayer, newSpanLog()
	}
	for _, name := range names {
		res, err := runWorkload(findWorkload(name), cfg, specs, log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rf.Workloads[name] = res
		printResult(name, res)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	data, _ := json.MarshalIndent(rf, "", " ")
	if err := os.WriteFile(filepath.Join(cfg.outDir, fmt.Sprintf("result-trace%d.json", rf.Trace)), data, 0o644); err != nil {
		return nil, err
	}
	if log != nil {
		if err := log.write(filepath.Join(cfg.outDir, "spans.json")); err != nil {
			return nil, err
		}
	}
	return rf, nil
}

// runWorkload sets up cfg.setups times and measures for an equal share
// of cfg.seconds on each set-up, so that setup_s is a median and no one
// recording's place in memory colours a whole run; then it summarizes
// the metrics named by specs over all passes.
func runWorkload(wl *workload, cfg config, specs []metricSpec, log *spanLog) (*result, error) {
	res := &result{Metrics: map[string]summary{}}
	samples := map[string][]float64{}
	var plain, spanned []float64 // pass_s without and with spans (traced run)
	minPasses := 10              // untraced medians need their ten samples even when passes run slow
	if cfg.traced || cfg.smoke {
		minPasses = 1
	}
	setups := 3 // setup_s is their median
	if cfg.smoke {
		setups = 1
	}
	passes := 0
	for i := 0; i < setups; i++ {
		t := time.Now()
		dir := filepath.Join(cfg.tmpRoot, fmt.Sprintf("%s-%d-%d", wl.name, os.Getpid(), i))
		fx, err := setup(wl, cfg.seed, cfg.smoke, dir)
		if err != nil {
			return nil, err
		}
		samples["setup_s"] = append(samples["setup_s"], time.Since(t).Seconds())
		samples["harness.recording_mb"] = []float64{float64(fx.rec.bytes()) / (1 << 20)}
		deadline := time.Now().Add(time.Duration(cfg.seconds / float64(setups) * float64(time.Second)))
		need := (minPasses*(i+1) + setups - 1) / setups
		err = fx.measure(cfg.traced, log, func(po *passOut, layer map[string]float64) bool {
			res.Attempted += po.attempted
			res.Failed += po.failed
			if layer == nil {
				layer = po.metrics
			} else {
				spanned = append(spanned, po.metrics["pass_s"])
			}
			for k, v := range layer {
				samples[k] = append(samples[k], v)
			}
			passes++
			return passes < need || (!cfg.smoke && time.Now().Before(deadline))
		}, func(po *passOut) {
			res.Attempted += po.attempted
			res.Failed += po.failed
			plain = append(plain, po.metrics["pass_s"])
		})
		fx.close()
		if err != nil {
			return nil, err
		}
	}
	if cfg.traced {
		samples["harness.trace_overhead_pct"] = []float64{(quantile(spanned, 0.5)/quantile(plain, 0.5) - 1) * 100}
		samples["harness.passes"] = []float64{float64(len(spanned))}
	}
	for _, ms := range specs {
		xs, ok := samples[ms.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s named in BENCHMARK.json was not measured", ms.Name)
		}
		res.Metrics[ms.Name] = summarize(xs, ms.Unit)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs passes on one set-up until each returns false. Untraced,
// each pass is handed over with layer == nil. Traced, every iteration
// is a plain pass (handed to plainPass), the same pass with spans on,
// and the layer drives; each gets the spanned pass and its per-layer
// values.
//
// While it runs the garbage collector works only where the harness
// forces it, between stages. A collection that starts inside a timed
// region is paced by the harness's own heap (the recording), not by
// anything the pipeline does, and it doubled the run-to-run spread of
// the decode and pass times. What a layer allocates is on the ledger as
// allocs and bytes per call instead.
func (fx *fixture) measure(traced bool, log *spanLog, each func(po *passOut, layer map[string]float64) bool, plainPass func(*passOut)) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	debug.SetMemoryLimit(6 << 30) // a stage that outgrows this collects after all
	fx.pass(0, nil)               // warm-up: page in the recording, fill the collector's pools
	if !traced {
		for n := 1; ; n++ {
			if !each(fx.pass(n, nil), nil) {
				return nil
			}
		}
	}
	ls, err := fx.startLayerServers()
	if err != nil {
		return err
	}
	defer ls.close()
	for n := 1; ; n++ {
		// The layer drives leave the collectors' journals flushing, which
		// slows whichever pass comes next; taking turns keeps that out of
		// the difference between the two.
		var po *passOut
		if n%2 == 1 {
			plainPass(fx.pass(-n, nil))
			po = fx.pass(n, log)
		} else {
			po = fx.pass(n, log)
			plainPass(fx.pass(-n, nil))
		}
		layer := fx.layers(n, log, po, ls)
		for k, v := range stageShares(po) {
			layer[k] = v
		}
		if !each(po, layer) {
			return nil
		}
	}
}

// stageShares is each stage's share of the pass, from the pass's own
// stage clocks (the same intervals the stage spans cover).
func stageShares(po *passOut) map[string]float64 {
	pass := po.metrics["pass_s"]
	return map[string]float64{
		"stage.trace_pct":    po.stage["trace"] / pass * 100,
		"stage.finalize_pct": po.stage["finalize"] / pass * 100,
		"stage.decode_pct":   po.stage["decode"] / pass * 100,
	}
}

func printResult(name string, res *result) {
	fmt.Printf("== %s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s := res.Metrics[k]
		fmt.Printf("%-36s %16.6g %-6s n=%-4d q1=%.6g q3=%.6g\n", k, s.Value, s.Unit, s.N, s.Q1, s.Q3)
	}
}

// mergeResults is the last line of output: the one workload's result,
// or for a run of several, their totals with metrics named
// workload.metric.
func mergeResults(rf *resultFile, names []string) *result {
	if len(names) == 1 {
		return rf.Workloads[names[0]]
	}
	all := &result{Correct: true, Metrics: map[string]summary{}}
	for _, n := range names {
		r := rf.Workloads[n]
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, s := range r.Metrics {
			all.Metrics[n+"."+k] = s
		}
	}
	return all
}
