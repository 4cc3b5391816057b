package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, the same rule as numpy's default and
// Python's statistics.quantiles(method="inclusive"). An empty sample yields
// NaN so that a missing measurement cannot pass for a zero one. xs is not
// modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

// sortedPercentile is percentile for an already ascending sample.
func sortedPercentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio divides num by den, returning 0 for a zero base: every ratio the
// benchmark reports is a share of events (refusals, cache hits, batches), and
// with no events there is nothing to share. Callers that must tell "no
// events" apart check den themselves.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// latencySummary is the reported view of one latency sample: median, the
// tail percentile, and how many observations they rest on.
type latencySummary struct {
	N   int
	P50 float64
	P99 float64
}

func summarize(xs []float64) latencySummary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return latencySummary{N: len(s), P50: sortedPercentile(s, 0.50), P99: sortedPercentile(s, 0.99)}
}
