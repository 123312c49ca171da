package pilgrim_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
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

func (c goldenCase) path() string { return filepath.Join("testdata", "golden", c.name()+".pilgrim") }

// TestGoldenTraces pins the trace RunSim writes of every golden case
// (TestRoutes requires every other route to write it too). A golden is
// compared by its raw bytes (tracetest.Raw): a deflated body inflated,
// since compress/flate's output may change between Go releases. Read
// and written again, every golden is its own bytes.
func TestGoldenTraces(t *testing.T) {
	for _, g := range goldenCases() {
		c := g.routeCase(t)
		t.Run(c.name, func(t *testing.T) {
			mem, err := runSim(t, c, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(c.golden, mem, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tracetest.Raw(t, mem), tracetest.Raw(t, golden)) {
				t.Errorf("RunSim differs from the golden: %v", diffBytes(golden, mem))
			}
			if again := tracetest.Bytes(t, tracetest.Read(t, golden)); !bytes.Equal(again, golden) {
				t.Errorf("the golden read and written again is %d bytes, not its own %d", len(again), len(golden))
			}
		})
	}
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
			readsAsGolden(t, old, golden)
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
			readsAsGolden(t, old, golden)
		})
	}
}

// readsAsGolden requires a fixture an older writer wrote to read and
// rewrite to its own bytes, and to read and decode as its golden does:
// the same File, and every rank the same calls, times included.
func readsAsGolden(t *testing.T, old, golden []byte) {
	t.Helper()
	a, b := tracetest.Read(t, old), tracetest.Read(t, golden)
	if again := tracetest.Bytes(t, a); !bytes.Equal(again, old) {
		t.Errorf("the fixture read and written again is %d bytes, not its own %d", len(again), len(old))
	}
	if err := tracetest.Diff(a, b); err != nil {
		t.Fatalf("fixture and golden: %v", err)
	}
	sameCalls(t, a, b)
}

// sameCalls requires every rank of a and b to decode to the same calls,
// times included.
func sameCalls(t *testing.T, a, b *pilgrim.TraceFile) {
	t.Helper()
	for r := range a.NumRanks {
		x, err := pilgrim.DecodeRank(a, r)
		y, err2 := pilgrim.DecodeRank(b, r)
		if err != nil || err2 != nil || !reflect.DeepEqual(x, y) {
			t.Fatalf("rank %d decodes to other calls (%v, %v)", r, err, err2)
		}
	}
}
