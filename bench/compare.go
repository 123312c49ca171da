package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict classifies one (metric, workload) row. worse is how much the
// new median is worse than the old one as a share of the old one
// (negative when better); spread is the wider of the two runs' quartile
// distances as a share of their medians. A row whose own passes spread
// wider than the bound cannot be called either way.
func verdict(ms metricSpec, old, cur summary) (v string, worse, spread float64) {
	if old.Value == 0 {
		return "unresolved", 0, 0
	}
	worse = (cur.Value - old.Value) / old.Value
	if ms.Better == "higher" {
		worse = -worse
	}
	spread = max((old.Q3-old.Q1)/old.Value, (cur.Q3-cur.Q1)/cur.Value)
	switch {
	case spread > ms.Bound:
		v = "unresolved"
	case worse > ms.Bound:
		v = "regressed"
	case worse < -ms.Bound:
		v = "improved"
	default:
		v = "unchanged"
	}
	return v, worse, spread
}

// compareFiles prints one row per end-to-end metric and workload and
// returns the exit status: 1 if any row regressed or a run had failed
// operations, else 0.
func compareFiles(sp *spec, oldPath, newPath string) int {
	old, err := readResults(oldPath)
	if err != nil {
		fatal(err)
	}
	cur, err := readResults(newPath)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(cur.Workloads))
	for n := range cur.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	status := 0
	fmt.Printf("%-16s %-28s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "old", "new", "worse", "spread", "bound", "verdict")
	for _, n := range names {
		o, c := old.Workloads[n], cur.Workloads[n]
		if o == nil {
			fmt.Printf("%-16s only in %s\n", n, newPath)
			continue
		}
		if c.Failed > 0 || o.Failed > 0 {
			fmt.Printf("%-16s failed operations: old %d of %d, new %d of %d\n", n, o.Failed, o.Attempted, c.Failed, c.Attempted)
			status = 1
		}
		for _, ms := range sp.EndToEnd {
			om, ok1 := o.Metrics[ms.Name]
			cm, ok2 := c.Metrics[ms.Name]
			if !ok1 || !ok2 {
				continue
			}
			v, worse, spread := verdict(ms, om, cm)
			if v == "regressed" {
				status = 1
			}
			fmt.Printf("%-16s %-28s %14.6g %14.6g %+8.1f%% %7.1f%% %6.1f%%  %s\n",
				n, ms.Name, om.Value, cm.Value, worse*100, spread*100, ms.Bound*100, v)
		}
	}
	return status
}
