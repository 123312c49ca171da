package main

// The four workloads. Each is one recorded application at one size,
// finalized through one route; bench/README.md says why each is here.

type route int

const (
	routeMemory  route = iota // core.Finalize over resident tracers
	routeSpill                // spill.Finalize, bounded resident snapshots
	routeCollect              // snapshots shipped to a collector, trace fetched back
)

type workload struct {
	name         string
	app          string
	ranks, iters int
	lossy        bool
	route        route
	maxResident  int // spill batch size K
	// smoke scale: the same shape at test size.
	smokeRanks, smokeIters int
}

var allWorkloads = []workload{
	{name: "hot_loop", app: "stencil2d", ranks: 16, iters: 2000, route: routeMemory,
		smokeRanks: 16, smokeIters: 40},
	{name: "irregular", app: "cellular", ranks: 16, iters: 400, lossy: true, route: routeMemory,
		smokeRanks: 16, smokeIters: 60},
	{name: "wide_spill", app: "cg", ranks: 4096, iters: 10, route: routeSpill, maxResident: 256,
		smokeRanks: 64, smokeIters: 4},
	{name: "collect_ingest", app: "cg", ranks: 1024, iters: 10, route: routeCollect,
		smokeRanks: 64, smokeIters: 4},
}

func findWorkload(name string) *workload {
	for i := range allWorkloads {
		if allWorkloads[i].name == name {
			return &allWorkloads[i]
		}
	}
	return nil
}

// sized returns the ranks and iterations for the scale.
func (w *workload) sized(smoke bool) (ranks, iters int) {
	if smoke {
		return w.smokeRanks, w.smokeIters
	}
	return w.ranks, w.iters
}
