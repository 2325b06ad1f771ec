// Package stats provides the measurement primitives used by the
// evaluation harness: thread-safe latency histograms with percentile
// queries and throughput windows.
package stats

import (
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets; bucket i
// covers [2^i, 2^(i+1)) nanoseconds, reaching ~18 hours at i=63.
const histBuckets = 64

// Histogram is a lock-free log-scale latency histogram. The zero value is
// ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(d)
	if d < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

func bucketOf(ns uint64) int {
	b := 0
	for ns > 1 && b < histBuckets-1 {
		ns >>= 1
		b++
	}
	return b
}

// Merge adds o's observations to h. o may be recording meanwhile: its
// count is read before its buckets (Record fills the bucket first), so the
// merged buckets always hold at least the merged count.
func (h *Histogram) Merge(o *Histogram) {
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	for m := o.max.Load(); ; {
		cur := h.max.Load()
		if m <= cur || h.max.CompareAndSwap(cur, m) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Percentile returns an upper bound on the p-th percentile (p in [0,100]).
// Resolution is the bucket width (a factor of two).
func (h *Histogram) Percentile(p float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := uint64(float64(n) * p / 100.0)
	if target >= n {
		target = n - 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > target {
			return time.Duration(uint64(1) << uint(i+1)) // bucket upper bound
		}
	}
	return h.Max()
}

// Throughput converts a completed-operation count and a wall-clock window
// into operations per second.
func Throughput(ops uint64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(ops) / window.Seconds()
}
