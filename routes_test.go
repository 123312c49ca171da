package pilgrim_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	pilgrim "github.com/hpcrepro/pilgrim"
	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/cst"
	"github.com/hpcrepro/pilgrim/internal/sig"
	"github.com/hpcrepro/pilgrim/internal/spill"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// TestRoutes holds every finalize route to one trace per case. A case
// is traced once, on tracers that keep their raw streams. Its
// reference is core.FinalizeSnapshots over their snapshots at
// GOMAXPROCS 1, checked by VerifyLossless (VerifySalvaged for a
// salvage) and, for a golden case, against the checked-in golden by
// its raw bytes. Every route that can carry the case must then write
// the reference's bytes:
//
//   - FinalizeSnapshots at GOMAXPROCS 2, 3 and 8;
//   - FinalizeStreamed and FinalizePremerged (a cst.Incremental merge
//     fed out of rank order), each at K ∈ {1, 3, P} resident snapshots
//     × GOMAXPROCS ∈ {1, 2, 3, 8}, and spill.FinalizeRanks, which is
//     FinalizeStreamed behind the spill's writes, at K ∈ {1, 3, P};
//   - RunSim, which traces the case again: in memory (for a golden
//     case, TestGoldenTraces' pin), through a spill at K = 3, and
//     through a collector with a spill directory, which must stay empty;
//   - an in-process collector fed in rank order, in reverse, and from 8
//     senders under an OutDir and 3 resident snapshots, which must
//     store the trace it serves, or, for a straggler, through its
//     deadline. Each must merge every snapshot it is sent once.
//
// The spill, RunSim and the collectors run at the GOMAXPROCS the test
// starts with, which go test's -cpu sweeps: their cells cost file
// system and network round trips. K=0 is no cap. A failing cell names
// its case, route, K and GOMAXPROCS and the first part of the trace
// that differs (tracetest.Diff).
func TestRoutes(t *testing.T) {
	s := &collectors{outDir: t.TempDir(), spillDir: t.TempDir()}
	s.plain = startCollector(t, collect.Config{})
	s.spilled = startCollector(t, collect.Config{OutDir: s.outDir, MaxResidentSnapshots: 3})
	s.straggler = startCollector(t, collect.Config{StragglerDeadline: stragglerDeadline})
	for _, c := range routeCases(t) {
		t.Run(c.name, func(t *testing.T) { s.check(t, c, nil) })
	}
}

// The finalize identity tests are slices of the matrix under their old
// names: each runs some routes over the matrix's ring (or cg) cases.
// The Workers ones and PremergedStreamed repeat cells of TestRoutes;
// PremergedWorkers adds the premerged walk without a cap, and the
// Streamed ones the spill at every GOMAXPROCS, which TestRoutes leaves
// to -cpu.

func TestFinalizeWorkersByteIdentical(t *testing.T) {
	routeSlice(t, named("FinalizeSnapshots"), "ring_%d", 1, 2, 7, 16, 33)
}

func TestFinalizeWorkersByteIdenticalLossyTiming(t *testing.T) {
	routeSlice(t, named("FinalizeSnapshots"), "ring_%d_lossy", 2, 7, 16)
}

func TestFinalizeWorkersByteIdenticalSalvage(t *testing.T) {
	sliceCases(t, named("FinalizeSnapshots"), "ring_7_failed_2_5", "ring_7_lossy_failed_2")
}

// TestFinalizePremergedWorkersByteIdentical runs the premerged walk
// without a cap, the collector's when nothing spills.
func TestFinalizePremergedWorkersByteIdentical(t *testing.T) {
	routeSlice(t, func(r *route) bool { r.k = 0; return r.name == "FinalizePremerged" }, "ring_%d", 1, 2, 7, 16, 33)
}

func TestFinalizePremergedStreamedByteIdentical(t *testing.T) {
	routeSlice(t, named("FinalizePremerged"), "ring_%d", 1, 2, 7, 16, 33)
}

func TestFinalizeStreamedByteIdentical(t *testing.T) {
	routeSlice(t, spillSweep, "ring_%d", 1, 2, 7, 16, 33)
}

func TestFinalizeStreamedByteIdenticalLossyTiming(t *testing.T) {
	routeSlice(t, spillSweep, "ring_%d_lossy", 2, 7, 16)
}

func TestFinalizeStreamedByteIdenticalSalvage(t *testing.T) {
	sliceCases(t, spillSweep, "ring_7_failed_2_5", "ring_7_lossy_failed_2")
}

func TestFinalizeStreamedShapeByteIdentical(t *testing.T) {
	routeSlice(t, spillSweep, "cg_%dx3", 16, 33)
}

// named picks the route of that name as the matrix runs it.
func named(name string) func(r *route) bool { return func(r *route) bool { return r.name == name } }

// spillSweep picks spill.FinalizeRanks at every GOMAXPROCS of the sweep.
func spillSweep(r *route) bool { r.procs = procsSweep; return r.name == "spill.FinalizeRanks" }

// routeSlice runs the routes pick picks over the matrix's cases that
// format names at each of ranks, as subtests ranks=N.
func routeSlice(t *testing.T, pick func(r *route) bool, format string, ranks ...int) {
	for _, n := range ranks {
		t.Run(fmt.Sprintf("ranks=%d", n), func(t *testing.T) { sliceCases(t, pick, fmt.Sprintf(format, n)) })
	}
}

// sliceCases runs the routes pick picks over the matrix's named cases.
func sliceCases(t *testing.T, pick func(r *route) bool, names ...string) {
	s := &collectors{spillDir: t.TempDir()}
	for _, c := range routeCases(t) {
		if slices.Contains(names, c.name) {
			s.check(t, c, pick)
		}
	}
}

// check traces c and runs it through every route that carries it or,
// given pick, through the routes pick picks, as pick may reset them.
func (s *collectors) check(t *testing.T, c routeCase, pick func(r *route) bool) {
	start := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(start)
	x := c.trace(t)
	for _, r := range s.routes() {
		if r.carries != nil && !r.carries(c) || pick != nil && !pick(&r) {
			continue
		}
		ks, procs := []int{r.k}, r.procs
		if r.k < 0 {
			ks = []int{1, 3}
			if c.procs != 1 && c.procs != 3 {
				ks = append(ks, c.procs)
			}
		}
		if procs == nil {
			procs = []int{start}
		}
		for _, k := range ks {
			for _, p := range procs {
				runtime.GOMAXPROCS(p)
				s.seq++
				x.k, x.run = k, fmt.Sprintf("cell-%d", s.seq)
				got, err := r.run(t, x)
				if err == nil && !bytes.Equal(got, x.want) {
					err = diffBytes(x.want, got)
				}
				if err != nil {
					t.Errorf("case %s, route %s, K=%d, GOMAXPROCS=%d: %v", c.name, r.name, k, p, err)
				}
			}
		}
	}
}

// procsSweep is the GOMAXPROCS settings the route matrix runs at.
var procsSweep = []int{1, 2, 3, 8}

const stragglerDeadline = 200 * time.Millisecond

// routeCase is one traced program of the route matrix.
type routeCase struct {
	name     string
	procs    int
	body     func(p *mpi.Proc)
	opts     pilgrim.Options
	sim      mpi.Options
	golden   string // the checked-in trace, if any
	shaped   bool   // its calls must be stored by shape
	deflated bool   // its body must be stored deflated
	crash    bool   // the run fails, and RunSim salvages it
	// failed makes a completed run a salvage of these ranks: its trace
	// is tagged with them, or, with straggler, they never report and
	// the collector's deadline salvages the run.
	failed    []int32
	straggler bool
}

// complete reports whether c finalizes without a salvage tag.
func (c routeCase) complete() bool { return !c.crash && c.failed == nil }

// routeCases is every golden case; the ring at 1 to 33 ranks, some in
// lossy timing; a lossy trace whose body is deflated; cg stored by
// shape; runs tagged with failed ranks, in both timings, and one with a
// straggler; and each encoding ablation on two programs.
func routeCases(t *testing.T) []routeCase {
	var cs []routeCase
	for _, c := range goldenCases() {
		cs = append(cs, c.routeCase(t))
	}
	aggregated, lossy := pilgrim.Options{}, pilgrim.Options{TimingMode: trace.TimingLossy, TimingBase: 1.2}
	ringCase := func(n int, opts pilgrim.Options, suffix string) routeCase {
		return routeCase{name: fmt.Sprintf("ring_%d%s", n, suffix), procs: n, body: ring(6), opts: opts, sim: simOpts()}
	}
	for _, n := range []int{1, 2, 7, 16, 33} {
		cs = append(cs, ringCase(n, aggregated, ""))
	}
	for _, n := range []int{2, 7, 16} {
		cs = append(cs, ringCase(n, lossy, "_lossy"))
	}
	cs = append(cs, routeCase{name: "stencil2d_8x120_lossy", procs: 8, body: workload(t, "stencil2d", 120, 8),
		opts: pilgrim.Options{TimingMode: trace.TimingLossy}, sim: simOpts(), deflated: true})
	for _, n := range []int{16, 33} {
		cs = append(cs, routeCase{name: fmt.Sprintf("cg_%dx3", n), procs: n, body: workload(t, "cg", 3, n), sim: simOpts(), shaped: true})
	}
	tagged, lossyTagged, straggler := ringCase(7, aggregated, "_failed_2_5"), ringCase(7, lossy, "_lossy_failed_2"), ringCase(6, aggregated, "_straggler_2")
	tagged.failed, lossyTagged.failed, straggler.failed, straggler.straggler = []int32{2, 5}, []int32{2}, []int32{2}, true
	cs = append(cs, tagged, lossyTagged, straggler)
	for _, a := range []struct {
		name string
		enc  sig.Options
	}{{"NoRelativeRanks", sig.Options{NoRelativeRanks: true}}, {"SharedRequestPool", sig.Options{SharedRequestPool: true}},
		{"NoPointerTracking", sig.Options{NoPointerTracking: true}}} {
		opts := pilgrim.Options{Encoding: a.enc}
		cs = append(cs, ringCase(7, opts, "_"+a.name), routeCase{name: "stencil2d_8x3_" + a.name, procs: 8,
			body: workload(t, "stencil2d", 3, 8), opts: opts, sim: simOpts()})
	}
	return cs
}

// routeCase is the golden case as the route matrix runs it.
func (c goldenCase) routeCase(t *testing.T) routeCase {
	opts, sim := c.options()
	return routeCase{name: c.name(), procs: c.procs, body: workload(t, c.workload, c.iters, c.procs),
		opts: opts, sim: sim, golden: c.path(), crash: c.crash != nil}
}

func workload(t testing.TB, app string, iters, procs int) func(p *mpi.Proc) {
	body, err := workloads.Get(app, iters, procs)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// cell is a traced case as the routes take it: its snapshots, the
// salvage tag they finalize under and the reference bytes, with the
// cap of resident snapshots and the run id of the cell at hand.
type cell struct {
	routeCase
	snaps []*core.Snapshot
	tag   *trace.SalvageInfo
	want  []byte
	k     int
	run   string
}

// info returns a fresh copy of the case's salvage tag, or nil: a
// route's walk fills in its calls.
func (x *cell) info() *trace.SalvageInfo {
	if x.tag == nil {
		return nil
	}
	return &trace.SalvageInfo{Reason: x.tag.Reason, FailedRanks: x.tag.FailedRanks}
}

// trace runs the case once and checks its reference.
func (c routeCase) trace(t *testing.T) *cell {
	t.Helper()
	opts := c.opts
	opts.Verify = true
	tracers, err := traceRun(c.procs, opts, c.sim, c.body)
	if (err != nil) != c.crash {
		t.Fatalf("run error %v; crash case %v", err, c.crash)
	}
	x := &cell{routeCase: c, snaps: core.Snapshots(tracers)}
	switch {
	case c.crash:
		f, _ := pilgrim.SalvageFinalize(tracers, err)
		x.tag = f.Salvage
	case c.straggler:
		for _, r := range c.failed {
			tracers[r] = core.NewTracer(int(r), nil, opts)
			x.snaps[r] = tracers[r].Snapshot()
		}
		x.tag = &trace.SalvageInfo{Reason: fmt.Sprintf("collector: straggler deadline (%s): %d/%d ranks reported",
			stragglerDeadline, c.procs-len(c.failed), c.procs), FailedRanks: c.failed}
	case c.failed != nil:
		x.tag = &trace.SalvageInfo{Reason: "route matrix", FailedRanks: c.failed}
	}
	runtime.GOMAXPROCS(1)
	ref, _ := core.FinalizeSnapshots(x.snaps, c.opts, x.info())
	x.want = tracetest.Bytes(t, ref)
	verify := core.VerifyLossless
	if x.tag != nil {
		verify = core.VerifySalvaged
	}
	if err := verify(ref, tracers); err != nil {
		t.Fatalf("reference: %v", err)
	}
	switch {
	case c.shaped && len(ref.Representatives()) == len(ref.Grammars):
		t.Fatalf("%d grammars of %d shapes, not stored by shape", len(ref.Grammars), len(ref.Representatives()))
	case c.deflated && !bytes.HasPrefix(x.want, []byte("PILGRIM8")):
		t.Fatalf("the reference starts %q, its body not deflated", x.want[:8])
	case c.golden != "":
		golden, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tracetest.Raw(t, x.want), tracetest.Raw(t, golden)) {
			t.Fatalf("reference differs from %s: %v", c.golden, diffBytes(golden, x.want))
		}
	}
	return x
}

// diffBytes is tracetest.Diff of two traces' bytes, read.
func diffBytes(want, got []byte) error {
	a, err := trace.Read(bytes.NewReader(want))
	if err != nil {
		return err
	}
	b, err := trace.Read(bytes.NewReader(got))
	if err != nil {
		return fmt.Errorf("%d bytes that do not read: %w", len(got), err)
	}
	if err := tracetest.Diff(a, b); err != nil {
		return err
	}
	return fmt.Errorf("%d bytes, %d, that read as the same trace", len(want), len(got))
}

// route is one way a cell's snapshots become a trace's bytes.
type route struct {
	name    string
	k       int   // its cap of resident snapshots; -1: K ∈ {1, 3, P}
	procs   []int // its GOMAXPROCS settings; nil: the test's
	carries func(c routeCase) bool
	run     func(t *testing.T, x *cell) ([]byte, error)
}

// collectors are the in-process collectors the matrix ships cells to,
// and the directories its routes write.
type collectors struct {
	plain, spilled, straggler *collect.Server
	outDir, spillDir          string // spilled's OutDir, the spills'
	seq                       int    // the cells run, which number their runs
}

func (s *collectors) routes() []route {
	written := func(t *testing.T, f *trace.File, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		return tracetest.Bytes(t, f), nil
	}
	// capped is the case's options at the cell's cap, spilling, if they
	// spill, to the cell's run under spillDir.
	capped := func(x *cell) core.Options {
		o := x.opts
		o.MaxResidentSnapshots, o.SpillDir, o.CollectorRunID = x.k, s.spillDir, x.run
		return o
	}
	reruns := func(c routeCase) bool { return c.failed == nil }
	return []route{
		{name: "FinalizeSnapshots", procs: []int{2, 3, 8}, run: func(t *testing.T, x *cell) ([]byte, error) {
			f, _ := core.FinalizeSnapshots(x.snaps, x.opts, x.info())
			return written(t, f, nil)
		}},
		{name: "FinalizeStreamed", k: -1, procs: procsSweep, run: func(t *testing.T, x *cell) ([]byte, error) {
			f, _, err := core.FinalizeStreamed(x.procs, func(start, n int) ([]*core.Snapshot, error) {
				return x.snaps[start : start+n], nil
			}, capped(x), x.info())
			return written(t, f, err)
		}},
		{name: "spill.FinalizeRanks", k: -1, run: func(t *testing.T, x *cell) ([]byte, error) {
			f, _, err := spill.FinalizeRanks(x.procs, func(r int) *core.Snapshot {
				sn := *x.snaps[r] // the finalize owns what it takes; the next cell takes it again
				sn.Table = sn.Table.Clone()
				return &sn
			}, x.info(), capped(x))
			return written(t, f, err)
		}},
		{name: "FinalizePremerged", k: -1, procs: procsSweep, run: func(t *testing.T, x *cell) ([]byte, error) {
			inc, stride := cst.NewIncremental(x.procs), 3
			if x.procs%stride == 0 {
				stride = 1
			}
			for i := range x.procs {
				if r := i * stride % x.procs; inc.Add(r, x.snaps[r].Table) != nil {
					return nil, fmt.Errorf("incremental merge of rank %d", r)
				}
			}
			f, _ := core.FinalizePremerged(x.snaps, inc.Result(), 0, capped(x), x.info())
			return written(t, f, nil)
		}},
		{name: "RunSim", carries: func(c routeCase) bool { return reruns(c) && c.golden == "" }, run: func(t *testing.T, x *cell) ([]byte, error) {
			return runSim(t, x.routeCase, x.opts)
		}},
		{name: "RunSim spill", k: 3, carries: reruns, run: func(t *testing.T, x *cell) ([]byte, error) {
			return runSim(t, x.routeCase, capped(x))
		}},
		{name: "RunSim collector", carries: reruns, run: func(t *testing.T, x *cell) ([]byte, error) {
			o := capped(x) // a spill directory, which a collector's route ignores
			o.CollectorAddr = s.plain.Addr()
			before := s.plain.Metrics().FinalizedRuns.Load()
			b, err := runSim(t, x.routeCase, o)
			ents, _ := os.ReadDir(filepath.Join(s.spillDir, x.run))
			switch runs := s.plain.Metrics().FinalizedRuns.Load() - before; {
			case err != nil:
			case len(ents) != 0:
				err = fmt.Errorf("%d entries in the unused spill directory", len(ents))
			case x.complete() != (runs == 1):
				err = fmt.Errorf("the collector finalized %d runs", runs)
			}
			return b, err
		}},
		{name: "collector in rank order", carries: routeCase.complete, run: func(_ *testing.T, x *cell) ([]byte, error) {
			return ship(s.plain, x, x.snaps, false)
		}},
		{name: "collector in reverse", carries: routeCase.complete, run: func(_ *testing.T, x *cell) ([]byte, error) {
			rev := slices.Clone(x.snaps)
			slices.Reverse(rev)
			return ship(s.plain, x, rev, false)
		}},
		{name: "collector OutDir", k: 3, carries: routeCase.complete, run: func(_ *testing.T, x *cell) ([]byte, error) {
			b, err := ship(s.spilled, x, x.snaps, true)
			if disk, derr := os.ReadFile(filepath.Join(s.outDir, x.run+".pilgrim")); err == nil && !bytes.Equal(disk, b) {
				err = fmt.Errorf("the trace under OutDir (%d bytes, %v) is not the one served", len(disk), derr)
			}
			return b, err
		}},
		{name: "collector straggler deadline", carries: func(c routeCase) bool { return c.straggler }, run: func(_ *testing.T, x *cell) ([]byte, error) {
			sent := slices.DeleteFunc(slices.Clone(x.snaps), func(sn *core.Snapshot) bool { return slices.Contains(x.failed, int32(sn.Rank)) })
			return ship(s.straggler, x, sent, false)
		}},
	}
}

// ship sends snaps to srv as the cell's run, one at a time in their
// order or all at once from 8 senders, and returns the trace the
// collector serves. The collector must merge each snapshot once.
func ship(srv *collect.Server, x *cell, snaps []*core.Snapshot, all bool) ([]byte, error) {
	c := &collect.Client{Addr: srv.Addr(), Run: collect.RunInfo{RunID: x.run, WorldSize: x.procs,
		TimingMode: x.opts.TimingMode, TimingBase: x.opts.TimingBase}}
	defer c.Close()
	before := srv.Metrics().IngestSnapshots.Load()
	var err error
	if all {
		err = c.SendAll(snaps)
	}
	for i := 0; !all && i < len(snaps) && err == nil; i++ {
		err = c.SendSnapshot(snaps[i])
	}
	if err != nil {
		return nil, err
	}
	b, err := c.WaitTrace()
	if n := srv.Metrics().IngestSnapshots.Load() - before; err == nil && n != int64(len(snaps)) {
		err = fmt.Errorf("the collector merged %d of %d snapshots", n, len(snaps))
	}
	return b, err
}

// runSim traces c again through RunSim with options o: a crash case
// must fail and salvage, any other succeed.
func runSim(t *testing.T, c routeCase, o pilgrim.Options) ([]byte, error) {
	f, _, err := pilgrim.RunSim(c.procs, o, c.sim, c.body)
	switch {
	case c.crash && (err == nil || f == nil || f.Salvage == nil):
		return nil, fmt.Errorf("crash run: error %v, salvaged trace %v", err, f != nil && f.Salvage != nil)
	case !c.crash && err != nil:
		return nil, err
	}
	return tracetest.Bytes(t, f), nil
}

// traceRun runs body on n simulated ranks, a tracer with opts on each,
// and returns the tracers and the run's error.
func traceRun(n int, opts pilgrim.Options, sim mpi.Options, body func(p *mpi.Proc)) ([]*core.Tracer, error) {
	tracers := make([]*core.Tracer, n)
	sim.Interceptors = make([]mpi.Interceptor, n)
	for i := range tracers {
		tracers[i] = core.NewTracer(i, nil, opts)
		sim.Interceptors[i] = tracers[i]
	}
	err := mpi.RunOpt(n, sim, func(p *mpi.Proc) {
		core.BindOOB(tracers[p.Rank()], p)
		body(p)
	})
	return tracers, err
}

// startCollector starts an in-process collector on a free port, closed
// when the test ends.
func startCollector(t testing.TB, cfg collect.Config) *collect.Server {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	srv, err := collect.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}
