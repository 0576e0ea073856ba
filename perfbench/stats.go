package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the highest whole percentile that still has ten or
// more samples beyond it, kept between p50 and p90: beyond p90 the tail of
// millisecond-scale work on a shared two-core machine swings by a third
// from run to run, more than any bound the benchmark may set.
func tailPercentile(n int) float64 {
	if n <= 20 {
		return 50
	}
	return min(90, math.Floor(100*float64(n-10)/float64(n)))
}

// tail returns the tailPercentile(len(xs)) value of xs by nearest rank, and
// that percentile.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	pct = tailPercentile(len(xs))
	if pct == 50 {
		return median(xs), pct
	}
	s := sorted(xs)
	rank := int(math.Ceil(pct / 100 * float64(len(s))))
	return s[max(rank-1, 0)], pct
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
