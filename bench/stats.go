package main

import "sort"

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// summary is a metric over the passes of one run: the median is the
// reported value, the quartiles give -compare its spread.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func summarize(xs []float64, unit string) summary {
	return summary{Value: quantile(xs, 0.5), Unit: unit, N: len(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75)}
}
