package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// samples, 0 for an empty set.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentiles are the candidates of the percentile rule, ascending.
var tailPercentiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// highestPercentile applies the reporting rule for tails: the highest
// candidate percentile that still has at least ten samples beyond it.
// ok is false when even the median does not qualify.
func highestPercentile(n int) (q float64, ok bool) {
	for _, c := range tailPercentiles {
		if float64(n)*(1-c) >= 10-1e-9 { // 1-0.9 is not exactly a tenth
			q, ok = c, true
		}
	}
	return q, ok
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread the driver holds against a metric's
// bound. It mirrors Python's statistics.quantiles(values, n=4)
// (exclusive method), which is what the driver computes.
func iqrShare(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := sortedCopy(values)
	at := func(k int) float64 { // k-th quartile cut, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}

// nsToUs converts a slice of nanosecond samples to microseconds.
func nsToUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
