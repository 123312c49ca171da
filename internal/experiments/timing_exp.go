package experiments

import (
	"fmt"
	"io"

	pilgrim "github.com/hpcrepro/pilgrim"
)

// Fig10Result holds the non-aggregated timing grammar sizes for NPB.
type Fig10Result struct{ Series []SizeSeries }

// RunFig10 reproduces Figure 10: the interval- and duration-grammar
// sizes when Pilgrim stores non-aggregated timing with b = 1.2 (20%
// relative error), over the NPB kernels.
func RunFig10(scale Scale) (Fig10Result, error) {
	var res Fig10Result
	opts := pilgrim.Options{TimingMode: pilgrim.TimingLossy, TimingBase: 1.2}
	type bench struct {
		name  string
		sweep []int
		iters int
	}
	benches := []bench{
		{"is", []int{8, 16, 32, 64, 128, 256, 512, 1024}, 10},
		{"mg", []int{8, 16, 32, 64, 128, 256, 512, 1024}, 10},
		{"cg", []int{8, 16, 32, 64, 128, 256, 512, 1024}, 15},
		{"lu", []int{8, 16, 32, 64, 128, 256, 512, 1024}, 30},
		{"bt", []int{16, 64, 256, 1024}, 10},
		{"sp", []int{16, 64, 256, 1024}, 10},
	}
	for _, b := range benches {
		s := SizeSeries{Workload: b.name, XLabel: "procs"}
		for _, n := range scale.capSweep(b.sweep) {
			pt, err := RunPilgrim(b.name, n, b.iters, opts)
			if err != nil {
				return res, err
			}
			s.Points = append(s.Points, pt)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// Print renders Figure 10's data: each timing section's size as
// trace.File.SectionSizes reports it, the bytes the set and its index
// take in the raw body, before the writer deflates the body.
func (r Fig10Result) Print(w io.Writer) {
	header(w, "Figure 10: timing section sizes in the raw body, with their indices (b = 1.2)")
	for _, s := range r.Series {
		fmt.Fprintf(w, "%-10s  %8s  %12s  %14s  %14s\n",
			s.Workload, "procs", "calls", "interval(KB)", "duration(KB)")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-10s  %8d  %12d  %14s  %14s\n",
				"", p.Procs, p.Calls, kb(p.IntB), kb(p.DurB))
		}
	}
}
