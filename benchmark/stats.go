package main

import "sort"

// percentile returns the q-quantile (0..1) of ascending samples: the
// value at index floor(q*n). Empty input yields 0.
func percentile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median returns the middle value of vs (mean of the two middle values
// for an even count) without reordering vs. Empty input yields 0.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
