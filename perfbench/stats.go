package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (p in [0, 100]) of xs by
// linear interpolation between adjacent order statistics, together
// with the sample count it rests on. xs is sorted in place. An empty
// sample gives (0, 0).
func percentile(xs []float64, p float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	if p <= 0 {
		return xs[0], n
	}
	if p >= 100 {
		return xs[n-1], n
	}
	rank := p / 100 * float64(n-1)
	lo := int(rank)
	if lo+1 >= n {
		return xs[lo], n
	}
	return xs[lo] + (rank-float64(lo))*(xs[lo+1]-xs[lo]), n
}

// median is the 50th percentile of a copy of xs.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	v, _ := percentile(c, 50)
	return v
}

// groupedPercentile is the p-th percentile of values recorded as
// whole units truncated downward, such as the engine's microsecond
// trace fields: a recorded v stands for a true value in [v, v+1), and
// the percentile is interpolated within the unit that holds its rank
// (the grouped-data median formula). It spares a percentile of
// truncated integers from reading the same whole number on every run.
func groupedPercentile(vals []int64, p float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	target := p / 100 * float64(n)
	i := int(math.Min(target, float64(n-1)))
	v := s[i]
	below := sort.Search(n, func(k int) bool { return s[k] >= v })
	at := sort.Search(n, func(k int) bool { return s[k] > v }) - below
	return float64(v) + (target-float64(below))/float64(at)
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
