package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice; 0 for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sortedCopy returns vals sorted ascending without touching vals.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of vals
// with the method of Python's statistics.quantiles(vals, n=4) (the
// default "exclusive" method), so spreads computed here match what an
// outside script computes from the same values.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := sortedCopy(vals)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}
