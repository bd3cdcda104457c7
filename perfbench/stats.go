package main

import (
	"math"
	"slices"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it. sorted must be ascending and non-empty.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps p/100*n exact for percentiles like 99.9 that
	// binary floating point cannot represent.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks, from candidates, the highest percentile that still
// leaves at least minTail samples of n beyond its nearest rank; ok is false
// when none does.
func tailPercentile(n int, candidates []float64) (p float64, ok bool) {
	for _, c := range candidates {
		if n-rankOf(n, c) >= minTail && (!ok || c > p) {
			p, ok = c, true
		}
	}
	return p, ok
}

// sortedCopy returns an ascending copy of values.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of values (the mean of the two middle
// values for an even count). values must be non-empty.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of values by the
// exclusive method, the default of Python's statistics.quantiles(values,
// n=4). values needs at least two samples; with one, both are that sample.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure the bounds are compared against.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// sumOfSegments sums, position by position over the rows' common length,
// stat of the values the rows hold at that position.
func sumOfSegments(rows [][]float64, stat func([]float64) float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	n := len(rows[0])
	for _, r := range rows[1:] {
		n = min(n, len(r))
	}
	sum := 0.0
	col := make([]float64, len(rows))
	for k := 0; k < n; k++ {
		for i, r := range rows {
			col[i] = r[k]
		}
		sum += stat(col)
	}
	return sum
}

// minOf is the smallest of values, which must be non-empty.
func minOf(values []float64) float64 { return slices.Min(values) }
