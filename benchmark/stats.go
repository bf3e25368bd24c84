package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentileLadder are the percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// supportedTail is the highest ladder percentile that still has at
// least ten of n samples beyond it — the tail a run of n samples can
// carry. A run too short for p90 reports its median only.
func supportedTail(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder[1:] {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 0.1% of 10000 is 9.999… in floats
			best = p
		}
	}
	return best
}

// quartiles returns the cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), so a
// spread computed here is the spread the acceptance procedure computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
