package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// timing is reported as its median and the highest percentile that still
// has at least this many samples beyond it.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of quantile q among n
// sorted samples: the smallest k with k/n >= q.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the exact order statistic at quantile q of sorted
// (ascending) samples, or 0 for an empty slice. No interpolation: the
// value is always one of the samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond returns how many of n samples lie strictly after the q-th order
// statistic.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// tailOK reports whether the q-th percentile of n samples has the
// minBeyond samples past it that make it a reportable tail.
func tailOK(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// sortedCopy returns the samples in ascending order without touching the
// caller's slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5 order statistic.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// fitLine is the least-squares fit y = a + b·x.
func fitLine(xs, ys []float64) (a, b float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}
