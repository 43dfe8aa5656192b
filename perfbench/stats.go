package main

import (
	"math"
	"slices"
)

// minTail is how many samples must lie above a reported percentile. A
// percentile with a thinner tail is an extreme value, not a percentile,
// so it is refused rather than reported.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. It sorts samples in place. ok is false when fewer than
// minTail samples lie above the chosen rank (so p99 needs 1000 samples,
// p90 100 and p50 20).
func percentile(samples []uint32, q float64) (v float64, ok bool) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minTail {
		return 0, false
	}
	slices.Sort(samples)
	return float64(samples[rank-1]), true
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for none. It sorts xs in place. Medians of
// per-round and per-activation values carry no tail guard: they are
// aggregates of already-measured values, not a tail estimate.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work
// on this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// clampNs converts a duration in nanoseconds to a uint32 sample,
// saturating at about 4.3 s.
func clampNs(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(ns)
}
