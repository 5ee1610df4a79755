package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count) without reordering the caller's slice; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailPercentile reports the highest of p99, p95, p90 and p75 that has
// at least ten samples beyond it, with the percentile it chose; a
// sample too small for p75 yields (0, 0). The rule keeps a "p99" from
// being one outlier of a 50-call run.
func tailPercentile(xs []float64) (value float64, pct int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []int{99, 95, 90, 75} {
		idx := int(math.Ceil(float64(len(s)*p)/100)) - 1
		if idx >= 0 && len(s)-1-idx >= 10 {
			return s[idx], p
		}
	}
	return 0, 0
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median — the run-to-run spread the driver
// computes (Python's statistics.quantiles(xs, n=4), exclusive method).
// Fewer than two samples, or a zero median, have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			lo = 0
		}
		if lo > n-2 {
			lo = n - 2
		}
		frac := pos - float64(lo)
		return s[lo] + frac*(s[lo+1]-s[lo])
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// window is one slice of the timed phase: its bounds in wall seconds
// since the phase began and the process CPU seconds spent inside it.
type window struct {
	start, end float64
	cpu        float64
	speed      float64 // host speed inside it
	stolen     float64 // share of the machine's CPU time stolen inside it
}

// call is one closed-loop call of the timed phase, in seconds since the
// phase began, with the number of its input sets that verified.
type call struct {
	start, end float64
	ok         int
	speed      float64 // host speed around it
}

// creditSets shares each call's verified sets among the windows it
// overlaps, in proportion to the overlap. Counting whole calls by their
// end time would quantize a window holding 15 calls of 108 ms to steps
// of 7 %; fractional credit makes the per-window rate continuous.
func creditSets(ws []window, calls []call) []float64 {
	sets := make([]float64, len(ws))
	for _, c := range calls {
		d := c.end - c.start
		if d <= 0 || c.ok == 0 {
			continue
		}
		for i, w := range ws {
			lo, hi := math.Max(c.start, w.start), math.Min(c.end, w.end)
			if hi > lo {
				sets[i] += float64(c.ok) * (hi - lo) / d
			}
		}
	}
	return sets
}
