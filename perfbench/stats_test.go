package main

import (
	"math"
	"testing"
)

func TestHighestPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsP90OnlyWithTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarize(xs); !math.IsNaN(s.P90) || s.TailP != 50 || s.P50 != 50 {
		t.Fatalf("99 samples: %+v, want no p90, tail at p50 = 50", s)
	}
	xs = append(xs, 100)
	s := summarize(xs)
	if s.N != 100 || s.TailP != 90 || math.Abs(s.P90-90.1) > 1e-9 || s.Tail != s.P90 {
		t.Fatalf("100 samples: %+v, want p90 = 90.1", s)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is not NaN")
	}
}
