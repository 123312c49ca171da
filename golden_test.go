package pilgrim_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
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
// A golden is compared by its raw bytes (tracetest.Raw): a deflated
// body inflated, since compress/flate's output may change between Go
// releases; within one binary the routes still agree to the byte. Read
// and written again, every golden is its own bytes.
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
			if got, want := rawTrace(t, mem), rawTrace(t, golden); !bytes.Equal(got, want) {
				t.Errorf("in-memory route: %d raw bytes, golden %d, contents differ", len(got), len(want))
			}
			if again := writeTrace(t, readTrace(t, golden)); !bytes.Equal(again, golden) {
				t.Errorf("the golden read and written again is %d bytes, not its own %d", len(again), len(golden))
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

// rawTrace is tracetest.Raw's view of a trace's bytes.
func rawTrace(t *testing.T, b []byte) []byte {
	t.Helper()
	raw, err := tracetest.Raw(b)
	if err != nil {
		t.Fatal(err)
	}
	return raw
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

// TestCompatFixtures: traces an older writer wrote of five golden cases
// — a PILGRIM1 file, a PILGRIM2 file whose calls are stored by shape, a
// PILGRIM4 file whose timing sets are deflated one at a time, and two
// PILGRIM5 files — read, rewrite to their own bytes, and read and
// decode as their rewritten goldens do: the same File, and every rank
// the same calls, times included.
func TestCompatFixtures(t *testing.T) {
	for _, c := range []struct{ name, magic string }{
		{"osu_allreduce_8x3", "PILGRIM1"},
		{"stencil2d_8x3", "PILGRIM2"},
		{"stencil2d_8x3_lossy", "PILGRIM4"},
		{"cellular_8x3_lossy", "PILGRIM5"},
		{"osu_bw_8x3", "PILGRIM5"},
	} {
		t.Run(c.name, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", "compat", c.name+".pilgrim"))
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", c.name+".pilgrim"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(old, []byte(c.magic)) || bytes.Equal(old, golden) {
				t.Fatalf("fixture starts %q, %d bytes against the golden's %d", old[:8], len(old), len(golden))
			}
			a, b := readTrace(t, old), readTrace(t, golden)
			if again := writeTrace(t, a); !bytes.Equal(again, old) {
				t.Errorf("the fixture read and written again is %d bytes, not its own %d", len(again), len(old))
			}
			if err := sameFile(a, b); err != nil {
				t.Fatalf("fixture and golden: %v", err)
			}
			for r := 0; r < a.NumRanks; r++ {
				x, err := pilgrim.DecodeRank(a, r)
				if err != nil {
					t.Fatal(err)
				}
				y, err := pilgrim.DecodeRank(b, r)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(x, y) {
					t.Fatalf("rank %d decodes to other calls", r)
				}
			}
		})
	}
}

// TestV6CompatFixtures: every golden as the writer before the index
// sections stored it — a PILGRIM5 file, or PILGRIM6 where its body is
// deflated, the rank map a Sequitur grammar and the timing indices int
// lists — kept under testdata/compat/v6. Each reads and rewrites to
// its own bytes; today's golden (PILGRIM7 or PILGRIM8) is no larger,
// and reads as the same File and decodes to the same calls on every
// rank, times included.
func TestV6CompatFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "compat", "v6", "*.pilgrim"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 25 {
		t.Fatalf("%d v6 fixtures, one per golden is 25", len(paths))
	}
	for _, path := range paths {
		name := filepath.Base(path)
		t.Run(strings.TrimSuffix(name, ".pilgrim"), func(t *testing.T) {
			old, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", "golden", name))
			if os.IsNotExist(err) {
				golden, err = os.ReadFile(filepath.Join("internal", "replay", "testdata", "golden", name))
			}
			if err != nil {
				t.Fatal(err)
			}
			switch om, gm := string(old[:8]), string(golden[:8]); {
			case om != "PILGRIM5" && om != "PILGRIM6", gm != "PILGRIM7" && gm != "PILGRIM8":
				t.Fatalf("fixture starts %q, golden %q", om, gm)
			case len(golden) > len(old):
				t.Errorf("the golden takes %d bytes, the fixture %d", len(golden), len(old))
			}
			a, b := readTrace(t, old), readTrace(t, golden)
			if again := writeTrace(t, a); !bytes.Equal(again, old) {
				t.Errorf("the fixture read and written again is %d bytes, not its own %d", len(again), len(old))
			}
			if err := sameFile(a, b); err != nil {
				t.Fatalf("fixture and golden: %v", err)
			}
			for r := 0; r < a.NumRanks; r++ {
				x, err := pilgrim.DecodeRank(a, r)
				if err != nil {
					t.Fatal(err)
				}
				y, err := pilgrim.DecodeRank(b, r)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(x, y) {
					t.Fatalf("rank %d decodes to other calls", r)
				}
			}
		})
	}
}
