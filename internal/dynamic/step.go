package dynamic

import (
	"fmt"

	"repro/internal/task"
)

// External-input stepping: the live runtime (internal/serve) drives the
// engine one round at a time, pushing each round's admitted arrival
// batch and reconfiguration ops in from outside instead of drawing them
// from Config.Arrivals / Config.Churn. Everything else — service,
// tuning, the migration protocol, faults, checkpoints — runs through
// exactly the same step function as Engine.Run, which is what makes the
// lockstep replay twin possible: re-feeding the recorded StepInputs to
// a fresh engine reproduces the live run bit-for-bit.

// StepInput is one round's worth of external input.
type StepInput struct {
	// Weights are the admitted arrival weights for this round, in
	// admission order (task IDs and dispatch draws follow it). Each must
	// be a valid task weight (finite, ≥ 1).
	Weights []float64
	// Down and Up are reconfiguration ops applied ahead of any
	// config-driven churn: Down drains resources (tasks evacuate through
	// the configured re-home policy; Config.Churn.MinUp is respected),
	// Up adds them back. Indices must be in [0, n).
	Down, Up []int
}

// Step advances the engine by exactly one round using in as the
// round's external input, running the same boundary work as Run
// (window flush, telemetry, checkpoint cadence, scripted crash). It
// returns the index of the round it ran. Step must not be mixed with
// Run, and must not be called concurrently with itself or Checkpoint;
// after a Resume it continues from the snapshot's round.
func (en *Engine) Step(in StepInput) (int, error) {
	e := en.e
	t := e.nextRound
	if t >= e.cfg.Rounds {
		return t, fmt.Errorf("dynamic: step past the %d-round horizon", e.cfg.Rounds)
	}
	for i, w := range in.Weights {
		if !task.ValidWeight(w) {
			return t, fmt.Errorf("dynamic: step round %d: arrival %d weight %v violates wmin >= 1", t, i, w)
		}
	}
	for _, r := range in.Down {
		if r < 0 || r >= e.n {
			return t, fmt.Errorf("dynamic: step round %d: drain target %d outside [0, %d)", t, r, e.n)
		}
	}
	for _, r := range in.Up {
		if r < 0 || r >= e.n {
			return t, fmt.Errorf("dynamic: step round %d: add target %d outside [0, %d)", t, r, e.n)
		}
	}
	e.extActive = true
	e.extWeights, e.extDown, e.extUp = in.Weights, in.Down, in.Up
	err := e.step(t)
	e.extWeights, e.extDown, e.extUp = nil, nil, nil
	return t, err
}

// Finish closes a Step-driven run after its last stepped round and
// returns the Result (final window flush, censored recovery episodes,
// fault counters, conservation check) — the same tail Run executes
// after its loop. Call once, after the final Step.
func (en *Engine) Finish() (Result, error) {
	return en.e.finish()
}

// NextRound reports the round the next Step (or a resumed Run) would
// execute.
func (en *Engine) NextRound() int { return en.e.nextRound }

// Rounds reports the configured round horizon.
func (en *Engine) Rounds() int { return en.e.cfg.Rounds }

// LiveStats is a point-in-time view of the engine for serving-status
// endpoints. The sojourn and hop percentiles come from the always-on
// lifecycle histograms (trace.Hist over the power-of-two ladder), so
// they are bucket-resolution estimates; all are 0 until the first
// departure.
type LiveStats struct {
	NextRound      int
	InFlight       int
	InFlightWeight float64
	UpResources    int
	SojournP50     float64
	SojournP95     float64
	SojournP99     float64
	HopsP99        float64
}

// Stats reports the engine's current occupancy. Not safe concurrently
// with Step/Run.
func (en *Engine) Stats() LiveStats {
	e := en.e
	return LiveStats{
		NextRound:      e.nextRound,
		InFlight:       e.ts.Live(),
		InFlightWeight: e.s.InFlightWeight(),
		UpResources:    e.up.N(),
		SojournP50:     e.res.Sojourn.Quantile(0.50),
		SojournP95:     e.res.Sojourn.Quantile(0.95),
		SojournP99:     e.res.Sojourn.Quantile(0.99),
		HopsP99:        e.res.Hops.Quantile(0.99),
	}
}

// SetDispatch swaps the dispatch policy between rounds — the live
// runtime's online policy switch. The swap round and policy ride the
// round log, so a replay that re-applies them at the same boundaries
// stays bit-identical (dispatch draws burn the shared dispatch stream
// in admission order either way).
func (en *Engine) SetDispatch(d Dispatch) error {
	if d == nil {
		return fmt.Errorf("dynamic: SetDispatch(nil)")
	}
	if _, ok := d.(RehomeObserver); ok {
		return fmt.Errorf("dynamic: SetDispatch(%s): a policy that tracks the up set can only re-home", d.Name())
	}
	en.e.dispatch = en.e.prime(d)
	return nil
}
