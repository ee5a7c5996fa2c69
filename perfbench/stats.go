package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// not modified. An empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the percentiles a timing may be reported at,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// highestPercentile returns the highest percentile of tailPercentiles
// that leaves at least ten samples beyond it among n samples, or 0
// when n is too small even for the median.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		// n·(100−p)/100 ≥ 10, with slack for 100−99.9 not being exact.
		if float64(n)*(100-p) >= 1000-1e-6 {
			return p
		}
	}
	return 0
}

// timing summarizes one set of duration samples the way every timing
// is reported: median, the highest percentile with ≥10 samples beyond
// it, and the count.
type timing struct {
	N     int
	P50   float64
	Tail  float64 // percentile value at TailP
	TailP float64 // which percentile Tail is (0 when N < 20)
	P90   float64 // NaN when fewer than 100 samples
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), P50: median(xs), P90: math.NaN()}
	t.TailP = highestPercentile(len(xs))
	if t.TailP > 0 {
		t.Tail = quantile(xs, t.TailP/100)
	}
	if highestPercentile(len(xs)) >= 90 {
		t.P90 = quantile(xs, 0.9)
	}
	return t
}
