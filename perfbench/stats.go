package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: p90 needs at least 100 samples, p99 at least 1000.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs, and an error
// when fewer than minBeyond samples lie above it.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, n, n-rank, minBeyond)
	}
	return sortedCopy(xs)[rank-1], nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// schedule is an open-loop arrival schedule: request i is due at
// start + i·period, whether or not earlier requests have completed.
type schedule struct {
	start  time.Time
	period time.Duration
}

func newSchedule(start time.Time, rate float64) schedule {
	return schedule{start: start, period: time.Duration(float64(time.Second) / rate)}
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.period) }

// late is how far behind its due time a request was sent; a request is
// never sent early, so a negative gap (clock granularity) reads as 0.
func late(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}
