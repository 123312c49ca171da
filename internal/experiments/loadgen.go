package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/hpcrepro/pilgrim/internal/collect"
	"github.com/hpcrepro/pilgrim/internal/core"
	"github.com/hpcrepro/pilgrim/internal/loadgen"
	"github.com/hpcrepro/pilgrim/internal/workloads"
	"github.com/hpcrepro/pilgrim/mpi"
)

// LoadgenPoint profiles the collector at one amplification level: a
// flat-out replay (recorded gaps collapsed) measures the ingest
// ceiling and ack round-trip percentiles, then an open-loop replay at
// half that ceiling checks the pacer holds its offered rate without
// the collector falling behind.
type LoadgenPoint struct {
	Amplify int   `json:"amplify"`
	Streams int   `json:"streams"`
	Pairs   int64 `json:"pairs_planned"`

	// flat-out replay: the ingest ceiling
	MaxPps     float64 `json:"max_pairs_per_sec"`
	AckP50Ms   float64 `json:"ack_latency_p50_ms"`
	AckP95Ms   float64 `json:"ack_latency_p95_ms"`
	AckP99Ms   float64 `json:"ack_latency_p99_ms"`
	ElapsedSec float64 `json:"flatout_elapsed_sec"`

	// open-loop replay at half the measured ceiling
	OfferedPps  float64 `json:"offered_rate_pairs_per_sec"`
	AchievedPps float64 `json:"achieved_rate_pairs_per_sec"`

	Acks  int64 `json:"acks"`
	Nacks int64 `json:"nacks"`
}

// LoadgenResult is the "loadgen" experiment: replay-amplification
// throughput of the collector subsystem (BENCH_loadgen.json).
type LoadgenResult struct {
	Workload string         `json:"workload"`
	World    int            `json:"world"`
	Iters    int            `json:"iters"`
	Points   []LoadgenPoint `json:"points"`
}

// RunLoadgen captures one real run's wire journal, then replays it
// against fresh collectors at increasing amplification.
func RunLoadgen(scale Scale) (*LoadgenResult, error) {
	res := &LoadgenResult{Workload: "stencil2d", World: 4, Iters: 10}
	jdir, cleanup, err := loadgenCapture(res.Workload, res.World, res.Iters)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	for _, amp := range scale.capSweep([]int{8, 32, 128, 512}) {
		pt, err := loadgenPoint(jdir, amp)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// loadgenCapture traces the workload and ships it through a
// capture-mode collector, returning the run's journal directory.
func loadgenCapture(name string, procs, iters int) (string, func(), error) {
	body, err := workloads.Get(name, iters, procs)
	if err != nil {
		return "", nil, err
	}
	tracers := make([]*core.Tracer, procs)
	ics := make([]mpi.Interceptor, procs)
	for i := range tracers {
		tracers[i] = core.NewTracer(i, nil, core.Options{})
		ics[i] = tracers[i]
	}
	err = mpi.RunOpt(procs, mpi.Options{Interceptors: ics, Timeout: runTimeout}, func(p *mpi.Proc) {
		core.BindOOB(tracers[p.Rank()], p)
		body(p)
	})
	if err != nil {
		return "", nil, fmt.Errorf("%s/%d: %w", name, procs, err)
	}
	snaps := make([]*core.Snapshot, procs)
	for i, tr := range tracers {
		snaps[i] = tr.Snapshot()
	}
	dir, err := os.MkdirTemp("", "pilgrim-bench-loadgen-")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	srv, err := collect.Start(collect.Config{Listen: "127.0.0.1:0", OutDir: dir, KeepJournalFrames: true})
	if err != nil {
		cleanup()
		return "", nil, err
	}
	c := &collect.Client{
		Addr: srv.Addr(),
		Run:  collect.RunInfo{RunID: "bench-src", WorldSize: procs},
	}
	defer c.Close()
	_, err = c.Collect(snaps)
	srv.Close()
	if err != nil {
		cleanup()
		return "", nil, fmt.Errorf("capture %s/%d: %w", name, procs, err)
	}
	return filepath.Join(dir, "journal", "bench-src"), cleanup, nil
}

func loadgenPoint(jdir string, amplify int) (LoadgenPoint, error) {
	replay := func(rate float64) (*loadgen.Report, error) {
		target, err := collect.Start(collect.Config{Listen: "127.0.0.1:0"})
		if err != nil {
			return nil, err
		}
		defer target.Close()
		r, err := loadgen.New(loadgen.Config{
			Addr:     target.Addr(),
			Journals: []string{jdir},
			Amplify:  amplify,
			Speedup:  1e9, // collapse recorded gaps: flat-out unless rate paces
			Rate:     rate,
			Wait:     true,
		})
		if err != nil {
			return nil, err
		}
		rep, err := r.Run(context.Background())
		if err != nil {
			return nil, err
		}
		if rep.SendErrs > 0 || rep.AckErrs > 0 {
			return nil, fmt.Errorf("amplify %d: %d send errors, %d ack errors", amplify, rep.SendErrs, rep.AckErrs)
		}
		return rep, nil
	}

	flat, err := replay(0)
	if err != nil {
		return LoadgenPoint{}, err
	}
	pt := LoadgenPoint{
		Amplify:    amplify,
		Streams:    flat.Streams,
		Pairs:      flat.PairsPlanned,
		MaxPps:     flat.AchievedRatePps,
		AckP50Ms:   flat.AckLatencyP50Ms,
		AckP95Ms:   flat.AckLatencyP95Ms,
		AckP99Ms:   flat.AckLatencyP99Ms,
		ElapsedSec: flat.ElapsedSec,
		Acks:       flat.Acks,
		Nacks:      flat.Nacks,
	}
	// Offer half the measured ceiling open-loop: achieved should track
	// offered when the collector has headroom. Floor the target so a
	// noisy ceiling measurement cannot stall the sweep.
	target := flat.AchievedRatePps / 2
	if target < 50 {
		target = 50
	}
	paced, err := replay(target)
	if err != nil {
		return LoadgenPoint{}, err
	}
	pt.OfferedPps = paced.OfferedRatePps
	pt.AchievedPps = paced.AchievedRatePps
	pt.Acks += paced.Acks
	pt.Nacks += paced.Nacks
	return pt, nil
}

// Print renders the amplification sweep.
func (r *LoadgenResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("loadgen: replay amplification (%s, world %d)", r.Workload, r.World))
	fmt.Fprintf(w, "%8s %8s %8s %10s %9s %9s %9s %11s %11s\n",
		"amplify", "streams", "pairs", "max p/s", "p50 ms", "p95 ms", "p99 ms", "offered", "achieved")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8d %8d %8d %10.0f %9.2f %9.2f %9.2f %11.0f %11.0f\n",
			p.Amplify, p.Streams, p.Pairs, p.MaxPps,
			p.AckP50Ms, p.AckP95Ms, p.AckP99Ms, p.OfferedPps, p.AchievedPps)
	}
}
