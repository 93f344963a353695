package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A
// percentile with fewer samples beyond it is a single heavy job, not a
// tail, so it is not reported.
const minBeyond = 10

// sorted returns a sorted copy of the observations.
func sorted(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// percentileAllowed reports whether percentile p (0 < p < 100) of n
// samples has at least minBeyond samples above it.
func percentileAllowed(p float64, n int) bool {
	return n-rank(p, n) >= minBeyond
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(r, 1)
}

// percentile is the nearest-rank percentile p of vals (0 < p <= 100);
// NaN for an empty input.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := sorted(vals)
	return s[rank(p, len(s))-1]
}

// median is the middle value (mean of the two middle values for an even
// count); NaN for an empty input.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := sorted(vals)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns Q1, median and Q3 with the same method as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so
// the spread printed here is the one the repeat-run check computes.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sorted(vals)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		// exclusive method: position j = i*(n+1)/4, 1-based.
		num := i * (n + 1)
		j := num / 4
		delta := num - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*float64(delta)/4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
