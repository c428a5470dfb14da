// Package stats provides the small set of robust estimators the paper's
// analyses rely on: medians and percentiles over heavy-tailed measurement
// distributions, plus the mean.
//
// The paper uses medians almost exclusively (median download speed, median
// RTT of per-probe minimums) because crowdsourced measurement data is
// heavy-tailed; the mean serves the naive references and the ablation
// benchmarks.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators given no samples.
var ErrEmpty = errors.New("stats: empty sample")

// Median returns the median of xs without modifying it.
// It returns ErrEmpty for an empty slice.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}

// MedianSorted is Median for xs already sorted ascending: it neither
// copies nor sorts.
func MedianSorted(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return percentileSorted(xs, 50), nil
}

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return percentileSorted(s, p), nil
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean returns the arithmetic mean of xs, or ErrEmpty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}
