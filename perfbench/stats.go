package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(r, 1)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(p, len(xs))-1]
}

// tailPercentiles are the candidates for a sample's reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten samples beyond it, so a tail is never read off a handful of
// points. Samples too small for any candidate fall back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 50
}

// tail returns the tail latency of xs and the percentile it was read at.
func tail(xs []float64) (value, pct float64) {
	pct = tailPercentile(len(xs))
	return percentile(xs, pct), pct
}

// logSlope is the least-squares slope of log(y) against log(x): the
// exponent k of a y ~ x^k cost model. Points with a non-positive
// coordinate are skipped; fewer than two usable points give 0.
func logSlope(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, math.Log(xs[i]))
			ly = append(ly, math.Log(ys[i]))
		}
	}
	return slope(lx, ly)
}

// slope is the least-squares slope of y against x; fewer than two points,
// or no spread in x, give 0.
func slope(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mx, my := mean(xs), mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
