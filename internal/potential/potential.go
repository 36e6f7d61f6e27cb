// Package potential analyses potential-function traces Φ(0), Φ(1), …
// produced by protocol runs.
//
// The paper's analysis rests on two facts about
// Φ(t) = Σ_{i ∈ Ia(t) ∪ Ic(t)} w_i:
//
//   - Observation 4: under the resource-controlled protocol the
//     potential never increases.
//   - Lemma 5 / Lemma 10: per phase (resp. per round) the potential
//     drops by a constant factor in expectation, which the drift
//     theorem turns into the O(log) balancing-time bounds.
//
// This package provides the checkers and estimators that validate both
// facts empirically (experiment E8).
package potential

import "repro/internal/stats"

// NonIncreasing reports whether trace is non-increasing up to tol, and
// if not, the first violating index i (trace[i] > trace[i-1] + tol).
func NonIncreasing(trace []float64, tol float64) (ok bool, violation int) {
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[i-1]+tol {
			return false, i
		}
	}
	return true, -1
}

// TimeToZero returns the first index at which the trace reaches zero,
// or -1 if it never does.
func TimeToZero(trace []float64) int {
	for i, v := range trace {
		if v == 0 {
			return i
		}
	}
	return -1
}

// PhaseDropRatios returns Φ(t+phase)/Φ(t) sampled at phase boundaries
// t = 0, phase, 2·phase, …, for all boundaries with Φ(t) > 0. Lemma 5
// predicts a mean of at most 3/4 for phase = 2·H(G) under the
// resource-controlled tight-threshold protocol.
func PhaseDropRatios(trace []float64, phase int) []float64 {
	if phase <= 0 {
		panic("potential: phase must be positive")
	}
	var out []float64
	for t := 0; t+phase < len(trace); t += phase {
		if trace[t] > 0 {
			out = append(out, trace[t+phase]/trace[t])
		}
	}
	// A trace that ends inside the final phase still witnessed the
	// drop to its last value; count the truncated phase too.
	if last := (len(trace) - 1) / phase * phase; last < len(trace)-1 && trace[last] > 0 {
		out = append(out, trace[len(trace)-1]/trace[last])
	}
	return out
}

// MeanDrop pools traces and returns the average one-step relative drop
// E[(Φ(t)−Φ(t+1))/Φ(t)] over all transitions with Φ(t) > 0 — an
// estimate of the drift constant δ of Lemma 10.
func MeanDrop(traces [][]float64) float64 {
	var acc stats.Online
	for _, tr := range traces {
		for i := 1; i < len(tr); i++ {
			if tr[i-1] > 0 {
				acc.Add((tr[i-1] - tr[i]) / tr[i-1])
			}
		}
	}
	return acc.Mean()
}
