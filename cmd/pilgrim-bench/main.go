// pilgrim-bench regenerates the paper's evaluation tables and figures
// (§4) on the simulated substrate and prints their data series.
//
// Usage:
//
//	pilgrim-bench -exp all -scale standard
//	pilgrim-bench -exp fig5 -scale full
//	pilgrim-bench -exp stencil -scale quick -json
//	pilgrim-bench -exp stencil -json=out/dir
//
// Experiments: table1, stencil, osu, fig5, fig6, fig7, fig8, fig9,
// ablation, fig10, finalize_mem, all. An unknown name is an error.
// Pipeline timings (collector ingest, the finalize walk) live in the
// bench/ harness, not here.
//
// With -json, each experiment additionally writes BENCH_<exp>.json —
// the experiment's data series plus the run's self-observability
// metrics report — to the current directory (or the directory given as
// -json=DIR). EXPERIMENTS.md documents the schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/experiments"
)

// jsonFlag lets -json work both bare (write to the current directory)
// and as -json=DIR.
type jsonFlag struct {
	set bool
	dir string
}

func (j *jsonFlag) String() string { return j.dir }

func (j *jsonFlag) Set(v string) error {
	j.set = true
	if v == "" || v == "true" {
		j.dir = "."
	} else {
		j.dir = v
	}
	return nil
}

func (j *jsonFlag) IsBoolFlag() bool { return true }

// benchRecord is the BENCH_<exp>.json schema (see EXPERIMENTS.md).
type benchRecord struct {
	Experiment string                 `json:"experiment"`
	Scale      string                 `json:"scale"`
	ElapsedSec float64                `json:"elapsed_sec"`
	Result     any                    `json:"result"`
	Metrics    *pilgrim.MetricsReport `json:"metrics,omitempty"`
}

// result is what every experiment returns: its table printer, and
// under -json the payload of BENCH_<name>.json.
type result interface{ Print(io.Writer) }

// sweep adapts an experiment's typed runner to the table below.
func sweep[R result](f func(experiments.Scale) (R, error)) func(experiments.Scale) (result, error) {
	return func(s experiments.Scale) (result, error) { return f(s) }
}

// exps lists the experiments in the order -exp all runs them.
var exps = []struct {
	name string
	run  func(experiments.Scale) (result, error)
}{
	{"table1", func(experiments.Scale) (result, error) { return experiments.RunTable1(), nil }},
	{"stencil", sweep(experiments.RunStencil)},
	{"osu", sweep(experiments.RunOSU)},
	{"fig5", sweep(experiments.RunFig5)},
	{"fig6", sweep(experiments.RunFig6)},
	{"fig7", sweep(experiments.RunFig7)},
	{"fig8", sweep(experiments.RunFig8)},
	{"fig9", sweep(experiments.RunFig9)},
	{"ablation", sweep(experiments.RunAblation)},
	{"fig10", sweep(experiments.RunFig10)},
	{"finalize_mem", sweep(experiments.RunFinalizeMem)},
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment(s), comma separated")
		scaleStr = flag.String("scale", "quick", "sweep scale: quick, standard, full")
		jsonOut  jsonFlag
	)
	flag.Var(&jsonOut, "json", "also write BENCH_<exp>.json (optionally to `dir`)")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleStr {
	case "quick":
		scale = experiments.Quick
	case "standard":
		scale = experiments.Standard
	case "full":
		scale = experiments.Full
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleStr))
	}

	var names []string
	for _, e := range exps {
		names = append(names, e.name)
	}
	names = append(names, "all")
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(names, e) {
			fatal(fmt.Errorf("unknown experiment %q (valid: %s)", e, strings.Join(names, ", ")))
		}
		want[e] = true
	}

	for _, e := range exps {
		if want["all"] || want[e.name] {
			run(e.name, *scaleStr, scale, e.run, jsonOut)
		}
	}
}

// run executes one experiment, prints its table and, under -json,
// writes BENCH_<name>.json.
func run(name, scaleStr string, scale experiments.Scale, f func(experiments.Scale) (result, error), jsonOut jsonFlag) {
	var col *pilgrim.MetricsCollector
	if jsonOut.set {
		// A fresh collector per experiment so each BENCH file holds
		// only its own run's metrics.
		col = pilgrim.NewMetricsCollector()
		experiments.SetCollector(col)
		defer experiments.SetCollector(nil)
	}
	t0 := time.Now()
	res, err := f(scale)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	res.Print(os.Stdout)
	elapsed := time.Since(t0).Seconds()
	fmt.Printf("(%s took %.1fs)\n", name, elapsed)
	if !jsonOut.set {
		return
	}
	rec := benchRecord{
		Experiment: name,
		Scale:      scaleStr,
		ElapsedSec: elapsed,
		Result:     res,
		Metrics:    col.Report(),
	}
	if err := writeBench(jsonOut.dir, name, rec); err != nil {
		fatal(err)
	}
}

func writeBench(dir, name string, rec benchRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench output dir: %w", err)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", name, err)
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pilgrim-bench:", err)
	os.Exit(1)
}
