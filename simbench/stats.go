package main

import "sort"

// quantiles returns the n-1 cut points dividing xs into n groups of equal
// probability, by the same exclusive method as Python's
// statistics.quantiles(xs, n=n), so the figures here match the ones any
// reader recomputes from the printed runs. xs must not be empty.
func quantiles(xs []float64, n int) []float64 {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	out := make([]float64, n-1)
	if ld == 1 {
		for i := range out {
			out[i] = data[0]
		}
		return out
	}
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / float64(n)
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	mid := len(data) / 2
	if len(data)%2 == 1 {
		return data[mid]
	}
	return (data[mid-1] + data[mid]) / 2
}

// summary is a timing's median, quartiles and 90th percentile with its
// sample count.
type summary struct {
	N                  int
	P25, P50, P75, P90 float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q := quantiles(xs, 4)
	return summary{N: len(xs), P25: q[0], P50: median(xs), P75: q[2], P90: quantiles(xs, 10)[8]}
}

// safeDiv returns a/b, or 0 when b is 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
