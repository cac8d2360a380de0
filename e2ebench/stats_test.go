package main

import "testing"

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{20, 50}, {39, 50}, {40, 75}, {100, 75}, {199, 75},
		{200, 95}, {999, 95}, {50000, 95},
	} {
		tl, err := tail(samples(tc.n))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if tl.P != tc.want {
			t.Errorf("n=%d: tail at p%g, want p%g", tc.n, tl.P, tc.want)
		}
		if tl.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it, want at least %d", tc.n, tl.P, tl.Beyond, minBeyond)
		}
		// The value is a sample with exactly Beyond samples above it.
		above := 0
		for _, x := range samples(tc.n) {
			if x > tl.Value {
				above++
			}
		}
		if above != tl.Beyond {
			t.Errorf("n=%d: %d samples above the p%g value %g, reported %d", tc.n, above, tl.P, tl.Value, tl.Beyond)
		}
		// No higher rung is supported.
		for _, p := range tailLadder {
			if p > tl.P && tc.n-1-rank(p, tc.n) >= minBeyond {
				t.Errorf("n=%d: p%g is supported but the tail was taken at p%g", tc.n, p, tl.P)
			}
		}
	}
}

func TestTailRefusesWhatItCannotSupport(t *testing.T) {
	for _, n := range []int{0, 1, 10, 19} {
		if tl, err := tail(samples(n)); err == nil {
			t.Errorf("n=%d: got a tail at p%g with %d beyond, want a refusal", n, tl.P, tl.Beyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g, want 0", got)
	}
}
