package pilgrim_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.pilgrim from the in-memory route")

// goldenCase is one traced program of the golden corpus.
type goldenCase struct {
	workload     string
	procs, iters int
	lossy        bool
	crash        *mpi.Fault // a salvage case when non-nil
}

func (c goldenCase) name() string {
	s := fmt.Sprintf("%s_%dx%d", c.workload, c.procs, c.iters)
	if c.lossy {
		s += "_lossy"
	}
	if c.crash != nil {
		s = fmt.Sprintf("salvage_%s_crash%d_at%d", s, c.crash.Rank, c.crash.AtCall)
	}
	return s
}

func (c goldenCase) options() (pilgrim.Options, mpi.Options) {
	var opts pilgrim.Options
	if c.lossy {
		opts.TimingMode = pilgrim.TimingLossy
	}
	sim := mpi.Options{Timeout: 60 * time.Second}
	if c.crash != nil {
		sim.FaultPlan = &mpi.FaultPlan{Faults: []mpi.Fault{*c.crash}}
	}
	return opts, sim
}

// goldenCases is every workload skeleton at 8 ranks, or the next count
// it accepts, in aggregated timing; three of them in lossy timing; and
// one crash salvage.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, info := range workloads.List() {
		procs := 8
		for info.ProcsOK != nil && info.ProcsOK(procs) != nil {
			procs++
		}
		cs = append(cs, goldenCase{workload: info.Name, procs: procs, iters: 3})
	}
	for _, w := range []string{"stencil2d", "cellular", "osu_alltoall"} {
		cs = append(cs, goldenCase{workload: w, procs: 8, iters: 3, lossy: true})
	}
	return append(cs, goldenCase{workload: "stencil2d", procs: 8, iters: 5,
		crash: &mpi.Fault{Kind: mpi.FaultCrash, Rank: 3, AtCall: 10}})
}

// TestGoldenTraces pins the trace of every golden case, and requires
// every finalize route to produce it: the in-memory RunSim, RunSim
// through a spill directory at three resident snapshots, and an
// in-process collector fed by Client.Collect. RunSim does not send a
// failed run to a collector, so the salvage case's third route is
// RunSim with both a collector and a spill directory set: it must
// salvage in memory and leave the spill directory unused.
//
// Aggregated goldens are compared byte for byte. A lossy golden is
// compared by the File it reads to, since its timing sections are
// deflated and compress/flate's output may change between Go
// releases; within one binary the routes still agree to the byte.
func TestGoldenTraces(t *testing.T) {
	srv, err := collect.Start(collect.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, c := range goldenCases() {
		t.Run(c.name(), func(t *testing.T) {
			path := filepath.Join("testdata", "golden", c.name()+".pilgrim")
			mem := runGolden(t, c, nil)
			if *update {
				if err := os.WriteFile(path, mem, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if c.lossy {
				if err := sameFile(readTrace(t, mem), readTrace(t, golden)); err != nil {
					t.Errorf("in-memory route and golden: %v", err)
				}
			} else if !bytes.Equal(mem, golden) {
				t.Errorf("in-memory route: %d bytes, golden %d, contents differ", len(mem), len(golden))
			}

			spillDir := t.TempDir()
			spilled := runGolden(t, c, func(o *pilgrim.Options) {
				o.SpillDir, o.MaxResidentSnapshots = spillDir, 3
			})
			if !bytes.Equal(spilled, mem) {
				t.Errorf("spill route differs from the in-memory route")
			}

			var collected []byte
			if c.crash == nil {
				collected = collectGolden(t, c, srv.Addr())
			} else {
				ignored := t.TempDir()
				collected = runGolden(t, c, func(o *pilgrim.Options) {
					o.CollectorAddr, o.SpillDir = srv.Addr(), ignored
				})
				if ents, _ := os.ReadDir(ignored); len(ents) != 0 {
					t.Errorf("a failed run under a collector wrote %d entries to its spill directory", len(ents))
				}
			}
			if !bytes.Equal(collected, mem) {
				t.Errorf("collector route differs from the in-memory route")
			}
		})
	}
}

// runGolden traces c through RunSim with its options edited by route,
// and returns the trace's bytes. A salvage case must fail and salvage;
// any other must succeed.
func runGolden(t *testing.T, c goldenCase, route func(*pilgrim.Options)) []byte {
	t.Helper()
	body, err := workloads.Get(c.workload, c.iters, c.procs)
	if err != nil {
		t.Fatal(err)
	}
	opts, sim := c.options()
	if route != nil {
		route(&opts)
	}
	f, _, err := pilgrim.RunSim(c.procs, opts, sim, body)
	switch {
	case c.crash == nil && err != nil:
		t.Fatal(err)
	case c.crash != nil && (err == nil || f == nil || f.Salvage == nil):
		t.Fatalf("crash case: err %v, salvaged trace %v", err, f != nil && f.Salvage != nil)
	}
	return writeTrace(t, f)
}

// collectGolden traces c on tracers of its own and ships their
// snapshots to the collector at addr with Client.Collect, so a
// collector failure fails the test instead of finalizing locally.
func collectGolden(t *testing.T, c goldenCase, addr string) []byte {
	t.Helper()
	body, err := workloads.Get(c.workload, c.iters, c.procs)
	if err != nil {
		t.Fatal(err)
	}
	opts, sim := c.options()
	tracers := make([]*pilgrim.Tracer, c.procs)
	sim.Interceptors = make([]mpi.Interceptor, c.procs)
	for i := range tracers {
		tracers[i] = pilgrim.NewTracer(i, nil, opts)
		sim.Interceptors[i] = tracers[i]
	}
	if err := mpi.RunOpt(c.procs, sim, func(p *mpi.Proc) {
		pilgrim.BindOOB(tracers[p.Rank()], p)
		body(p)
	}); err != nil {
		t.Fatal(err)
	}
	snaps := make([]*core.Snapshot, c.procs)
	for i, tr := range tracers {
		snaps[i] = tr.Snapshot()
	}
	client := &collect.Client{Addr: addr, Run: collect.RunInfo{
		RunID:      "golden-" + c.name(),
		WorldSize:  c.procs,
		Epoch:      uint64(time.Now().UnixNano()),
		TimingMode: opts.TimingMode,
		TimingBase: opts.TimingBase,
	}}
	defer client.Close()
	f, err := client.Collect(snaps)
	if err != nil {
		t.Fatal(err)
	}
	return writeTrace(t, f)
}

func writeTrace(t *testing.T, f *trace.File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readTrace(t *testing.T, b []byte) *trace.File {
	t.Helper()
	f, err := trace.Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sameFile compares what a reader of two traces sees: header, CST,
// grammars and their shapes, rank map, timing sections and salvage tag.
func sameFile(a, b *trace.File) error {
	same := func(x, y []sequitur.Serialized) bool {
		return slices.EqualFunc(x, y, func(p, q sequitur.Serialized) bool { return slices.Equal(p, q) })
	}
	switch {
	case a.NumRanks != b.NumRanks || a.TimingMode != b.TimingMode || a.TimingBase != b.TimingBase:
		return fmt.Errorf("header differs")
	case !bytes.Equal(a.CST.Serialize(), b.CST.Serialize()):
		return fmt.Errorf("CST differs")
	case !same(a.Grammars, b.Grammars) || !slices.Equal(a.Shape, b.Shape) || !slices.Equal(a.RankMap, b.RankMap):
		return fmt.Errorf("call grammars differ")
	case !same(a.DurGrammars, b.DurGrammars) || !slices.Equal(a.DurIndex, b.DurIndex) ||
		!same(a.IntGrammars, b.IntGrammars) || !slices.Equal(a.IntIndex, b.IntIndex):
		return fmt.Errorf("timing sections differ")
	case !reflect.DeepEqual(a.Salvage, b.Salvage):
		return fmt.Errorf("salvage tags differ")
	}
	return nil
}
