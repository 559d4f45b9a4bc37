package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure is never one or
// two outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (q in (0,1)).
// It fails when fewer than minBeyond samples lie above the chosen rank.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[idx], nil
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
