package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported: fewer, and the value is one event rather than a tail.
const minTail = 10

// rank is the nearest-rank index of percentile p in n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// tailOK reports whether at least minTail of n samples lie beyond
// percentile p.
func tailOK(n int, p float64) bool {
	return n > 0 && n-1-rank(n, p) >= minTail
}

// highestPercentile returns the highest of the percentiles 50, 90, 99,
// 99.9, ... with at least minTail of n samples beyond it, or 0 when not
// even the median qualifies.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999} {
		if !tailOK(n, p) {
			break
		}
		best = p
	}
	return best
}

// pct returns percentile p of sorted samples. It takes the nearest-rank
// sample and interpolates toward the next larger distinct value by where
// p·n falls within the run of samples equal to it, as for grouped data.
// Host latencies are nearly all distinct, so this is plain linear
// interpolation; virtual latencies take few distinct values, and the
// interpolation lets a percentile follow the share of operations at
// each value instead of snapping to one. It fails when fewer than
// minTail samples lie beyond p.
func pct(sorted []int64, p float64) (float64, error) {
	n := len(sorted)
	if !tailOK(n, p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; have %d samples", p*100, minTail, n)
	}
	r := rank(n, p)
	v := sorted[r]
	lo := sort.Search(n, func(i int) bool { return sorted[i] >= v })
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v })
	if hi == n {
		return float64(v), nil
	}
	f := (p*float64(n) - float64(lo)) / float64(hi-lo)
	return float64(v) + f*float64(sorted[hi]-v), nil
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// median returns the median of xs (the mean of the middle two for an
// even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// spanStats is the median and p99 of a set of durations, in µs. Sets
// too small for a p99 report the largest sample there.
func spanStats(ns []int64) (p50, p99 float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), ns...)
	sortInt64(s)
	p50 = float64(s[rank(len(s), 0.5)]) / 1e3
	p99 = float64(s[rank(len(s), 0.99)]) / 1e3
	return p50, p99
}
