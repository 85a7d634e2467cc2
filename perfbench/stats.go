package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPermille are the candidate percentiles tailPercentile picks
// from, in tenths of a percent so the rule is exact integer arithmetic.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest candidate percentile that leaves
// at least ten of n samples beyond it, so a tail figure always rests on
// ten or more observations. It returns 0 when n < 20, where even the
// median has fewer than ten samples above it.
func tailPercentile(n int) float64 {
	for _, p := range tailPermille {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 0
}

// tail reports the median and the tailPercentile of xs, with the
// percentile it chose (0 and 0 when xs is too small for one).
func tail(xs []float64) (p50, tailVal, pct float64) {
	pct = tailPercentile(len(xs))
	if pct == 0 {
		return median(xs), 0, 0
	}
	return median(xs), quantile(xs, pct/100), pct
}
