package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50}
	cases := []struct{ q, want float64 }{
		{0, 15}, {1, 50}, {0.5, 35},
		{0.25, 20}, {0.9, 46}, // 0.9·4 = 3.6: 40 + 0.6·10
		{0.4, 29}, // 1.6: 20 + 0.6·15
	}
	for _, c := range cases {
		if got := quantile(vals, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	shuffled := []float64{50, 15, 40, 20, 35}
	if got := quantile(shuffled, 0.9); math.Abs(got-46) > 1e-9 {
		t.Errorf("unsorted input: quantile(0.9) = %v, want 46", got)
	}
	if shuffled[0] != 50 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 || quantile([]float64{7}, 0.9) != 7 {
		t.Error("empty or single-sample input")
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("median of an even count is not the mean of the middle pair")
	}
}

func TestBeyondP90(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	// p90 of 1..100 is 90.1: exactly ten samples lie beyond it.
	if n := beyond(vals, 0.9); n != 10 {
		t.Errorf("%d samples beyond p90, want 10", n)
	}
}

func TestPooledRounds(t *testing.T) {
	rounds := []*phase{
		{attempted: 3, lat: []float64{1, 2, 3}, elapsed: time.Second},
		{attempted: 1, failed: 1, lat: []float64{100}, elapsed: time.Second},
		{attempted: 3, lat: []float64{4, 5, 6}, elapsed: 2 * time.Second},
	}
	if got := median(pooled(rounds, latencies)); got != 4 {
		t.Errorf("median of the pooled latencies %v, want 4", got)
	}
	// Six of seven operations succeeded in four seconds.
	if got := rate(rounds); got != 1.5 {
		t.Errorf("pooled rate %v, want 1.5", got)
	}
}
