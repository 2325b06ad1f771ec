package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs, which must be
// sorted ascending, by the nearest-rank rule: the smallest sample with at
// least p% of the samples at or below it. It is exact — no buckets, no
// interpolation — which is the reason the benchmark owns its load driver.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// coefficientOfVariation is stddev ÷ mean of xs: a run's own noise figure
// when xs are its slice rates.
func coefficientOfVariation(xs []float64) float64 {
	m := mean(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / m
}

// sliceOf maps an event time to its slice index in a window that starts at
// t0 and is cut into n slices of width ns; events outside the window map
// to -1.
func sliceOf(t, t0, width int64, n int) int {
	if t < t0 {
		return -1
	}
	i := int((t - t0) / width)
	if i >= n {
		return -1
	}
	return i
}

// sliceRates cuts the window [t0, t0+n·width) into n slices and returns the
// per-second rate of each: weight[i] units are credited to the slice that
// holds ends[i].
func sliceRates(ends []int64, weight float64, t0, width int64, n int) []float64 {
	rates := make([]float64, n)
	for _, e := range ends {
		if i := sliceOf(e, t0, width, n); i >= 0 {
			rates[i] += weight
		}
	}
	for i := range rates {
		rates[i] /= float64(width) / 1e9
	}
	return rates
}

// maxGap finds the longest interval without an event in [from, to]. ends
// must be sorted ascending; events before from are ignored. It returns the
// gap and the time it ended — the moment service resumed, or to when no
// event followed.
func maxGap(ends []int64, from, to int64) (gap, resumedAt int64) {
	prev := from
	resumedAt = from
	for _, e := range ends {
		if e < from {
			continue
		}
		if e > to {
			break
		}
		if e-prev > gap {
			gap, resumedAt = e-prev, e
		}
		prev = e
	}
	if to-prev > gap {
		gap, resumedAt = to-prev, to
	}
	return gap, resumedAt
}

// littleMeanSeconds is Little's law for a closed loop with no think time:
// with inFlight requests always outstanding and perSecond completing, the
// mean time in system is their ratio. It is exact, whatever the latency
// distribution.
func littleMeanSeconds(inFlight, perSecond float64) float64 {
	if perSecond <= 0 {
		return 0
	}
	return inFlight / perSecond
}

// ratio is a ÷ b, and 0 when b is 0: per-layer ratios on workloads that
// never touch the layer report 0 instead of NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
