package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates the q-quantile (0..1) of an ascending slice.
func quantile(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns (the
// "exclusive" method), so -compare judges spread exactly as the acceptance
// procedure does. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tailLadder lists the percentiles a tail metric may report, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile returns the highest ladder percentile not above want that
// still has at least ten samples beyond it, and its value. A percentile with
// fewer samples beyond it is decided by a handful of outliers, so a workload
// that cannot collect enough samples for its preferred tail is reported at a
// lower one (down to the median) rather than at a noisy one.
func tailPercentile(xs []float64, want float64) (pct, value float64) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if beyond := int(math.Floor(float64(n) * (100 - p) / 100)); beyond >= 10 || p == 50 {
			return p, quantile(s, p/100)
		}
	}
	return 50, quantile(s, 0.5)
}
