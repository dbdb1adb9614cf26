package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of the values by linear
// interpolation between closest ranks (Hyndman–Fan type 7, the default of
// numpy and R). It sorts a copy; an empty input yields 0.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// beyond counts the samples strictly above the q-quantile: a percentile is
// only reported when at least ten samples lie beyond it.
func beyond(values []float64, q float64) int {
	cut := quantile(values, q)
	n := 0
	for _, v := range values {
		if v > cut {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
