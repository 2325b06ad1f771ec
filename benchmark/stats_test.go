package main

import (
	"math"
	"testing"
)

// The verdicts of later issues rest on this arithmetic, so each function is
// pinned on inputs small enough to check by hand.

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
	// Five samples: p50 is the 3rd, p99 the 5th; no interpolation.
	if got := percentile([]float64{1, 2, 4, 8, 100}, 50); got != 4 {
		t.Errorf("p50 = %v, want 4", got)
	}
	if got := percentile([]float64{1, 2, 4, 8, 100}, 99); got != 100 {
		t.Errorf("p99 = %v, want 100", got)
	}
}

func TestSliceCuttingAndMedianOfSlices(t *testing.T) {
	const sec = int64(1e9)
	t0 := 5 * sec
	// Slice 0 holds 2 events, slice 1 holds 1, slice 2 holds 3; one event
	// before the window, one exactly at its end (excluded: half-open).
	ends := []int64{t0 - 1, t0, t0 + sec - 1, t0 + sec, t0 + 2*sec, t0 + 2*sec + 5, t0 + 3*sec - 1, t0 + 3*sec}
	rates := sliceRates(ends, 32, t0, sec, 3)
	want := []float64{64, 32, 96}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
	if got := median(rates); got != 64 {
		t.Errorf("median of slices = %v, want 64", got)
	}
	if got := median([]float64{1, 9, 3, 7}); got != 5 {
		t.Errorf("even-count median = %v, want 5", got)
	}
	// Half-second slices double the rate for the same count.
	if got := sliceRates([]int64{t0}, 1, t0, sec/2, 1)[0]; got != 2 {
		t.Errorf("half-second slice rate = %v, want 2", got)
	}
	if got := coefficientOfVariation([]float64{10, 10, 10}); got != 0 {
		t.Errorf("cv of a constant = %v, want 0", got)
	}
	if got := coefficientOfVariation([]float64{9, 11}); math.Abs(got-math.Sqrt(2)/10) > 1e-12 {
		t.Errorf("cv(9, 11) = %v, want %v", got, math.Sqrt(2)/10)
	}
}

func TestMaxGapOnSyntheticCompletions(t *testing.T) {
	// Completions every 10 until the crash at 100, silence until 612, then
	// every 10 again up to 700.
	var ends []int64
	for e := int64(0); e <= 100; e += 10 {
		ends = append(ends, e)
	}
	for e := int64(612); e <= 700; e += 10 {
		ends = append(ends, e)
	}
	gap, resumed := maxGap(ends, 100, 700)
	if gap != 512 || resumed != 612 {
		t.Errorf("gap, resumed = %d, %d; want 512, 612", gap, resumed)
	}
	// Events before the crash are ignored even when their spacing is wider.
	gap, _ = maxGap([]int64{0, 90, 101, 102}, 100, 103)
	if gap != 1 {
		t.Errorf("gap = %d, want 1 (the 90-wide pre-crash interval does not count)", gap)
	}
	// Service that never resumes: the gap runs to the end of the window.
	gap, resumed = maxGap([]int64{10, 20}, 50, 400)
	if gap != 350 || resumed != 400 {
		t.Errorf("gap, resumed = %d, %d; want 350, 400", gap, resumed)
	}
}

func TestRequestSelfTimeSubtractsChildren(t *testing.T) {
	// gen 0-10, sign 10-40, send 40-55, then wait/reply pairs 55-300 and
	// 300-320, a retransmit from 320 to 350 that no child covers, and a
	// last wait/reply 350-400, 400-410.
	r := reqRec{genStart: 0, signStart: 10, done: 410, genNS: 10, signNS: 30, sendNS: 15, waitNS: 245 + 50, replyNS: 20 + 10}
	if got := r.selfNS(); got != 30 {
		t.Errorf("selfNS = %d, want 30 (the retransmit)", got)
	}
	if got := r.latencyNS(); got != 400 {
		t.Errorf("latencyNS = %d, want 400 (sign-start to done)", got)
	}
	whole := reqRec{genStart: 5, signStart: 6, done: 105, genNS: 1, signNS: 9, sendNS: 10, waitNS: 70, replyNS: 10}
	if got := whole.selfNS(); got != 0 {
		t.Errorf("children that partition the span leave selfNS = %d, want 0", got)
	}
}

func TestLittlesLawMean(t *testing.T) {
	// 2 000 sessions completing 160 000 txn/s spend 12.5 ms in the system.
	if got := littleMeanSeconds(2000, 160000); got != 0.0125 {
		t.Errorf("mean = %v s, want 0.0125", got)
	}
	if got := littleMeanSeconds(2000, 0); got != 0 {
		t.Errorf("mean at zero throughput = %v, want 0", got)
	}
}

func TestWorseningFollowsDirection(t *testing.T) {
	if got := worsening(100, 90, "higher"); got != 0.1 {
		t.Errorf("throughput 100 -> 90 = %v, want 0.1 worse", got)
	}
	if got := worsening(100, 90, "lower"); got != -0.1 {
		t.Errorf("latency 100 -> 90 = %v, want -0.1 (better)", got)
	}
}
