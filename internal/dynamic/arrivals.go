package dynamic

import (
	"errors"
	"fmt"

	"repro/internal/rng"
	"repro/internal/task"
)

// Arrivals is a pluggable arrival process: every round it emits the
// weights of the tasks entering the system.
type Arrivals interface {
	// Next appends the weights (each ≥ 1) of the tasks arriving in
	// round t to dst and returns the extended slice, drawing all
	// randomness from r. The engine hands it a reused buffer, so the
	// steady-state round allocates nothing.
	Next(t int, r *rng.Rand, dst []float64) []float64
	// Name identifies the process in reports.
	Name() string
}

// Poisson emits a Poisson(Rate) number of tasks per round with weights
// drawn from Weights — the classical open-system arrival stream.
type Poisson struct {
	Rate    float64 // mean arrivals per round
	Weights task.Distribution
}

// Next implements Arrivals.
func (p Poisson) Next(t int, r *rng.Rand, dst []float64) []float64 {
	return task.AppendWeights(p.Weights, dst, r.Poisson(p.Rate), r)
}

// Validate implements the optional config check.
func (p Poisson) Validate() error {
	if !(p.Rate >= 0 && p.Rate <= rng.MaxPoissonRate) {
		return fmt.Errorf("dynamic: Poisson.Rate %v must be finite, >= 0 and at most %g", p.Rate, float64(rng.MaxPoissonRate))
	}
	if p.Weights == nil {
		return errors.New("dynamic: Poisson.Weights is required")
	}
	return probeDistribution(p.Weights)
}

// probeDistribution draws one sample so that invalid distribution
// parameters (which the task package reports by panicking inside
// Weights) surface as a config error before the run starts.
func probeDistribution(d task.Distribution) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dynamic: invalid weight distribution %s: %v", d.Name(), r)
		}
	}()
	d.Weights(1, rng.NewSeeded(0))
	return nil
}

// Name identifies the process.
func (p Poisson) Name() string {
	return fmt.Sprintf("poisson(rate=%g,%s)", p.Rate, p.Weights.Name())
}

// Burst emits Size tasks every Every rounds and nothing in between —
// a periodic batch workload that stresses the protocols' transient
// response rather than their steady state.
type Burst struct {
	Every   int // burst period in rounds, ≥ 1
	Size    int // tasks per burst
	Weights task.Distribution
}

// Next implements Arrivals.
func (b Burst) Next(t int, r *rng.Rand, dst []float64) []float64 {
	if b.Every < 1 {
		panic("dynamic: Burst.Every must be >= 1")
	}
	if t%b.Every != 0 || b.Size <= 0 {
		return dst
	}
	return task.AppendWeights(b.Weights, dst, b.Size, r)
}

// Validate implements the optional config check.
func (b Burst) Validate() error {
	if b.Every < 1 {
		return fmt.Errorf("dynamic: Burst.Every %d must be >= 1", b.Every)
	}
	if b.Size < 0 {
		return fmt.Errorf("dynamic: Burst.Size %d must be >= 0", b.Size)
	}
	if b.Weights == nil {
		return errors.New("dynamic: Burst.Weights is required")
	}
	return probeDistribution(b.Weights)
}

// Name identifies the process.
func (b Burst) Name() string {
	return fmt.Sprintf("burst(every=%d,size=%d,%s)", b.Every, b.Size, b.Weights.Name())
}

// Trace replays a recorded arrival sequence: Rounds[t] holds the
// weights arriving in round t; rounds beyond the trace are silent.
// This is the hook for driving the engine from production logs.
type Trace struct {
	Rounds [][]float64
	Label  string
}

// Next implements Arrivals.
func (tr Trace) Next(t int, r *rng.Rand, dst []float64) []float64 {
	if t < 0 || t >= len(tr.Rounds) {
		return dst
	}
	return append(dst, tr.Rounds[t]...)
}

// Validate implements the optional config check: every replayed
// weight must satisfy the library's wmin >= 1 normalisation, or the
// insertion would panic mid-run.
func (tr Trace) Validate() error {
	for t, ws := range tr.Rounds {
		for _, w := range ws {
			if !task.ValidWeight(w) {
				return fmt.Errorf("dynamic: trace weight %v at round %d is below 1 (or not finite)", w, t)
			}
		}
	}
	return nil
}

// Name identifies the process.
func (tr Trace) Name() string {
	if tr.Label != "" {
		return "trace(" + tr.Label + ")"
	}
	return fmt.Sprintf("trace(%d rounds)", len(tr.Rounds))
}

// External marks a run whose arrivals are pushed in from outside via
// Engine.Step (the live runtime and its lockstep replay twin). The
// engine never consults it for weights — Step stages each round's
// admitted batch directly — so Next always emits nothing; it exists to
// satisfy validation and to name the mode in reports.
type External struct{}

// Next implements Arrivals; external-input rounds never draw from it.
func (External) Next(t int, r *rng.Rand, dst []float64) []float64 { return dst }

// Name identifies the process.
func (External) Name() string { return "external" }

// None emits no arrivals — a drain scenario: seed the system via
// Config.Initial* and watch departures and balancing empty it.
type None struct{}

// Next implements Arrivals.
func (None) Next(t int, r *rng.Rand, dst []float64) []float64 { return dst }

// Name identifies the process.
func (None) Name() string { return "none" }
