package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/experiments"
	"github.com/hpcrepro/pilgrim/internal/leaktest"
	"github.com/hpcrepro/pilgrim/internal/obs"
	"github.com/hpcrepro/pilgrim/internal/sequitur"
	"github.com/hpcrepro/pilgrim/internal/trace"
	"github.com/hpcrepro/pilgrim/internal/tracetest"
	"github.com/hpcrepro/pilgrim/internal/workloads"
)

// withoutTemplater is f as a File without its CST templater, whose
// writer templates the CST from scratch.
func withoutTemplater(f *trace.File) *trace.File {
	return &trace.File{
		NumRanks: f.NumRanks, TimingMode: f.TimingMode, TimingBase: f.TimingBase,
		CST: f.CST, Grammars: f.Grammars, RankMap: f.RankMap, Shape: f.Shape, ShapeVecs: f.ShapeVecs, Packed: f.Packed,
		DurGrammars: f.DurGrammars, DurIndex: f.DurIndex, IntGrammars: f.IntGrammars, IntIndex: f.IntIndex,
		Salvage: f.Salvage,
	}
}

// checkTemplater requires f's CST templater, if it has one, to cover
// every CST entry and to hold the section a templater fed them all at
// once builds, and f to write the bytes it writes without it. It
// reports whether f has one.
func checkTemplater(t *testing.T, route string, f *trace.File) bool {
	t.Helper()
	tm := f.CSTTemplater
	if tm == nil {
		return false
	}
	n := f.CST.Len()
	if tm.Len() != n {
		t.Fatalf("%s: the templater split %d entries of a CST of %d", route, tm.Len(), n)
	}
	sigs := make([]string, n)
	for i := range sigs {
		sigs[i] = f.CST.SigString(int32(i))
	}
	scratch := trace.NewCSTTemplater(n)
	scratch.Split(sigs)
	got, gotN := tm.Section(f.CST)
	want, wantN := scratch.Section(f.CST)
	if !bytes.Equal(got, want) || gotN != wantN {
		t.Fatalf("%s: the walk's section is %d bytes of %d templates, from scratch %d of %d", route, len(got), gotN, len(want), wantN)
	}
	if !bytes.Equal(tracetest.Bytes(t, f), tracetest.Bytes(t, withoutTemplater(f))) {
		t.Fatalf("%s: the trace differs from the one templated from scratch", route)
	}
	return true
}

// templateRoutes finalizes tracers through Finalize, FinalizeStreamed
// at K ∈ {0, 1, 2, 256}, a salvage and, when srv is non-nil, the
// collector's walk on arrival, and checks every File's templater. It
// requires every route but the salvage to write the bytes Finalize
// writes, and returns how many Files had a templater; at a grain of 1
// (grainOne), every one at K = 1 of a world of two ranks or more has.
func templateRoutes(t *testing.T, tracers []*core.Tracer, opts core.Options, srv *collect.Server, grainOne bool) int {
	t.Helper()
	snaps := core.Snapshots(tracers)
	n, templated := len(snaps), 0
	f, _ := core.Finalize(tracers)
	want := tracetest.Bytes(t, f)
	if checkTemplater(t, "Finalize", f) {
		templated++
	}
	for _, k := range []int{0, 1, 2, 256} {
		o := opts
		o.MaxResidentSnapshots = k
		f, _, err := core.FinalizeStreamed(n, func(start, m int) ([]*core.Snapshot, error) { return snaps[start : start+m], nil }, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		route := fmt.Sprintf("FinalizeStreamed K=%d", k)
		if checkTemplater(t, route, f) {
			templated++
		} else if k == 1 && n > 1 && grainOne {
			t.Fatalf("%s: one-rank batches at a grain of 1 handed nothing off", route)
		}
		if !bytes.Equal(tracetest.Bytes(t, f), want) {
			t.Fatalf("%s: the trace differs from Finalize's", route)
		}
	}
	f, _ = core.FinalizeSnapshots(core.Snapshots(tracers), opts, core.NewSalvageInfo(map[int]error{n / 2: errors.New("crashed")}, "templater test"))
	if checkTemplater(t, "salvage", f) {
		templated++
	}
	if srv != nil {
		client := &collect.Client{Addr: srv.Addr(), Run: collect.RunInfo{
			RunID:      fmt.Sprintf("tmpl-%d", time.Now().UnixNano()),
			WorldSize:  n,
			Epoch:      uint64(time.Now().UnixNano()),
			TimingMode: opts.TimingMode,
			TimingBase: opts.TimingBase,
		}}
		defer client.Close()
		f, err := client.Collect(snaps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tracetest.Bytes(t, f), want) {
			t.Fatal("collector: the trace differs from Finalize's")
		}
	}
	return templated
}

// TestWalkTemplatesBesideItself: the templated CST section a walk
// builds beside itself is, byte for byte, the one templated from
// scratch after it, on every finalize route: each golden program (every
// skeleton at 8 ranks or the next count it accepts, and three in lossy
// timing) with the grain at 1, so every Add with new entries hands
// them off, and a 4 096-rank cg world at the walk's own grain. Tables
// with entries that do not split (the synthetic ranks') are stored
// raw, as without a templater; what a cap crossing does is
// internal/trace's TestCSTTemplaterInGrains.
func TestWalkTemplatesBesideItself(t *testing.T) {
	srv, err := collect.Start(collect.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	t.Run("cg4096", func(t *testing.T) {
		tracers := traceSkeleton(t, "cg", 4096, 3, core.Options{})
		if got := templateRoutes(t, tracers, core.Options{}, srv, false); got != 6 {
			t.Fatalf("%d of 6 Files templated beside the walk", got)
		}
	})
	t.Run("synthetic1024", func(t *testing.T) {
		snaps := experiments.SyntheticSnapshots(1024)
		f, _ := core.FinalizeSnapshots(snaps, core.Options{}, nil)
		if !checkTemplater(t, "FinalizeSnapshots", f) {
			t.Fatal("no templater past the grain")
		}
		if sec, _ := f.CSTTemplater.Section(f.CST); sec != nil || f.CSTStorage().Form != "raw" {
			t.Fatalf("entries that do not split: a %d-byte section, the CST stored %s", len(sec), f.CSTStorage().Form)
		}
	})

	defer core.SetCSTGrain(1)()
	type program struct {
		name         string
		procs, iters int
		opts         core.Options
	}
	var progs []program
	for _, info := range workloads.List() {
		procs := 8
		for info.ProcsOK != nil && info.ProcsOK(procs) != nil {
			procs++
		}
		progs = append(progs, program{info.Name, procs, 3, core.Options{}})
	}
	lossy := core.Options{TimingMode: trace.TimingLossy}
	for _, w := range []string{"stencil2d", "cellular", "osu_alltoall"} {
		progs = append(progs, program{w, 8, 3, lossy})
	}
	for _, p := range progs {
		name := fmt.Sprintf("%s_%dx%d_lossy=%v", p.name, p.procs, p.iters, p.opts.TimingMode == trace.TimingLossy)
		t.Run(name, func(t *testing.T) {
			templateRoutes(t, traceSkeleton(t, p.name, p.procs, p.iters, p.opts), p.opts, srv, true)
		})
	}
}

// templateSpans counts the finalize.cst_template spans in sink.
func templateSpans(sink *obs.Sink) int {
	n := 0
	for _, e := range sink.Events() {
		if e.Name == "finalize.cst_template" {
			n++
		}
	}
	return n
}

// TestWalkTemplaterGoroutines: a walk whose global CST stays under the
// grain (stencil2d's 16 one-rank batches, the hot_loop shape) starts no
// goroutine across its Adds and finishes with no templater; a walk that
// has handed entries off and is then abandoned, by Stop, by an Add that
// fails or by a fetch that does, joins the templater's goroutine.
func TestWalkTemplaterGoroutines(t *testing.T) {
	settled := leaktest.Baseline(t)
	snaps := core.Snapshots(traceSkeleton(t, "stencil2d", 16, 50, core.Options{}))
	settled() // the simulated ranks' goroutines have exited
	w := core.NewWalk(16, core.Options{})
	check := leaktest.Baseline(t)
	for r := range snaps {
		if err := w.Add(snaps[r : r+1]); err != nil {
			t.Fatal(err)
		}
	}
	check()
	f, _, err := w.Finish(nil)
	w.Stop()
	if err != nil || f.CSTTemplater != nil {
		t.Fatalf("a %d-entry CST: templater %v, err %v", f.CST.Len(), f.CSTTemplater != nil, err)
	}

	defer core.SetCSTGrain(1)()
	bad := *snaps[8] // a grammar naming a terminal its table never held
	g := sequitur.New()
	g.Append(1 << 20)
	bad.Grammar = g.Serialize()
	for _, how := range []string{"stop", "add error", "fetch error"} {
		check := leaktest.Baseline(t)
		sink := obs.NewSink(1024)
		opts := core.Options{ObsSink: sink, MaxResidentSnapshots: 16}
		switch how {
		case "fetch error":
			errFetch := errors.New("batch 2 unreadable")
			_, _, err := core.FinalizeStreamed(16, func(start, n int) ([]*core.Snapshot, error) {
				if start >= 8 {
					return nil, errFetch
				}
				return snaps[start : start+n], nil
			}, opts, nil)
			if !errors.Is(err, errFetch) {
				t.Fatalf("%s: came back as %v", how, err)
			}
		default:
			w := core.NewWalk(16, opts)
			if err := w.Add(snaps[:8]); err != nil {
				t.Fatal(err)
			}
			if how == "add error" {
				if err := w.Add([]*core.Snapshot{&bad}); err == nil {
					t.Fatalf("%s: a grammar naming terminal %d walked", how, 1<<20)
				}
			}
			w.Stop()
		}
		check()
		if n := templateSpans(sink); n == 0 {
			t.Fatalf("%s: no hand-off before the walk was abandoned", how)
		}
	}
}
