// Package metrics quantifies how (im)balanced a load vector is. The
// paper's success criterion is binary — every load at or below the
// threshold — but the experiment reports also track how far a
// configuration is from balance while a protocol runs: the max/average
// gap (the classical balls-into-bins objective), the coefficient of
// variation, the Gini coefficient, and the fraction of overloaded
// resources.
package metrics

import (
	"math"
	"sort"
)

// Snapshot summarises one load vector.
type Snapshot struct {
	N          int
	Total      float64
	Average    float64
	Max        float64
	Min        float64
	Gap        float64 // Max − Average
	CV         float64 // stddev/mean (0 when mean is 0)
	Gini       float64 // 0 = perfectly even, →1 = concentrated
	Overloaded int     // resources with load > threshold
	OverFrac   float64 // Overloaded / N
}

// Measure computes a Snapshot of loads against a uniform threshold.
// It panics on an empty vector.
func Measure(loads []float64, threshold float64) Snapshot {
	if len(loads) == 0 {
		panic("metrics: empty load vector")
	}
	s := Snapshot{N: len(loads), Min: loads[0], Max: loads[0]}
	for _, l := range loads {
		s.Total += l
		if l > s.Max {
			s.Max = l
		}
		if l < s.Min {
			s.Min = l
		}
		if l > threshold {
			s.Overloaded++
		}
	}
	s.Average = s.Total / float64(s.N)
	s.Gap = s.Max - s.Average
	s.OverFrac = float64(s.Overloaded) / float64(s.N)
	if s.Average != 0 {
		varSum := 0.0
		for _, l := range loads {
			d := l - s.Average
			varSum += d * d
		}
		s.CV = math.Sqrt(varSum/float64(s.N)) / s.Average
	}
	s.Gini = Gini(loads)
	return s
}

// Gini returns the Gini coefficient of a non-negative load vector:
// G = Σ_i (2i − n − 1)·x_(i) / (n·Σ x), with x_(i) sorted ascending.
// Returns 0 for all-zero vectors.
func Gini(loads []float64) float64 {
	n := len(loads)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), loads...)
	sort.Float64s(sorted)
	total := 0.0
	weighted := 0.0
	for i, l := range sorted {
		if l < 0 {
			panic("metrics: Gini requires non-negative loads")
		}
		total += l
		weighted += float64(2*(i+1)-n-1) * l
	}
	if total == 0 {
		return 0
	}
	return weighted / (float64(n) * total)
}
