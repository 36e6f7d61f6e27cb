// Package faults is the deterministic message-fault layer of the
// open-system engine: it sits between the propose and deliver phases
// and decides, per migration message, whether the message is
// delivered, lost, delayed or duplicated, and whether a scripted
// partition window blocks it outright.
//
// Every decision is a stateless keyed draw — rng.Hash3 over
// (fault seed, task ID, round, attempt) — so the outcome is a pure
// function of the run configuration, independent of shard partition
// and worker count: the golden cross-worker replays extend to faulty
// runs unchanged. Lost messages enter an in-flight ledger and are
// retried with capped exponential backoff until a per-task timeout
// re-homes the task at its source; delayed messages sit in a delay
// wheel and deliver k rounds later in canonical order; duplicated
// messages spawn a late copy that the (task, flight-token) dedup
// table drops on arrival. Weight conservation holds over placed +
// in-flight mass throughout (core.State tracks the ledger via
// MarkInFlight/ClearInFlight and CheckInvariants balances both).
package faults

import "fmt"

// Partition is one scripted connectivity window: during rounds
// [Start, End) the member resources form their own network component,
// cut off from the rest of the fleet (and from the members of any
// other concurrently active window). Migrations across the cut fail
// fast — they bounce back to their source resource — and the engine
// removes the members from its reachable set, so dispatch and the
// threshold tuner pre-compensate for the unreachable capacity.
type Partition struct {
	Start   int   // first partitioned round
	End     int   // first round after the window (End > Start)
	Members []int // the isolated resources
}

// Plan configures the fault layer. The zero value injects nothing (a
// run with an all-zero plan is bit-identical to one without a plan,
// and stays allocation-free in steady state).
type Plan struct {
	// Loss is the per-message loss probability. A lost migration
	// enters the in-flight ledger and is retried with capped
	// exponential backoff; after Timeout rounds in flight the task
	// gives up and re-homes at its source resource.
	Loss float64
	// DelayProb is the per-message delay probability; a delayed
	// migration delivers 1..DelayMax rounds late (uniform).
	DelayProb float64
	// DelayMax bounds the delay distribution. Required (≥ 1) when
	// DelayProb > 0; also bounds the lateness of duplicate copies.
	DelayMax int
	// DupProb is the per-message duplication probability: the message
	// delivers normally and a duplicate copy arrives 1..max(DelayMax,1)
	// rounds later, to be dropped by the dedup table.
	DupProb float64

	// RetryBase is the backoff before the first retry of a lost
	// message, in rounds (default 1). The gap doubles per failed
	// attempt, capped at RetryCap (default 8).
	RetryBase int
	RetryCap  int
	// Timeout is the maximum rounds a task may sit in the ledger
	// before it re-homes at its source (default 30).
	Timeout int

	// Partitions are the scripted connectivity windows.
	Partitions []Partition

	// Seed is the dedicated fault-stream seed. The injector mixes it
	// with the run seed, so the same plan replays differently across
	// run seeds but identically across worker counts.
	Seed uint64
}

// withDefaults returns p with the retry-policy zero values filled in.
func (p Plan) withDefaults() Plan {
	if p.RetryBase == 0 {
		p.RetryBase = 1
	}
	if p.RetryCap == 0 {
		p.RetryCap = 8
	}
	if p.Timeout == 0 {
		p.Timeout = 30
	}
	return p
}

// Active reports whether the plan injects any fault at all.
func (p *Plan) Active() bool {
	return p != nil && (p.Loss > 0 || p.DelayProb > 0 || p.DupProb > 0 || len(p.Partitions) > 0)
}

// Validate checks the plan against an n-resource fleet.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	for name, v := range map[string]float64{"Loss": p.Loss, "DelayProb": p.DelayProb, "DupProb": p.DupProb} {
		if !(v >= 0 && v < 1) {
			return fmt.Errorf("faults: %s %v must be in [0,1)", name, v)
		}
	}
	if p.DelayProb > 0 && p.DelayMax < 1 {
		return fmt.Errorf("faults: DelayProb %v needs DelayMax >= 1 (got %d)", p.DelayProb, p.DelayMax)
	}
	if p.DelayMax < 0 {
		return fmt.Errorf("faults: DelayMax %d must be >= 0", p.DelayMax)
	}
	if p.RetryBase < 0 || p.RetryCap < 0 || p.Timeout < 0 {
		return fmt.Errorf("faults: retry policy (base %d, cap %d, timeout %d) must be non-negative",
			p.RetryBase, p.RetryCap, p.Timeout)
	}
	d := p.withDefaults()
	if d.RetryCap < d.RetryBase {
		return fmt.Errorf("faults: RetryCap %d below RetryBase %d", d.RetryCap, d.RetryBase)
	}
	for i, w := range p.Partitions {
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("faults: partition %d: window [%d,%d) is empty or negative", i, w.Start, w.End)
		}
		if len(w.Members) == 0 {
			return fmt.Errorf("faults: partition %d: no members", i)
		}
		if len(w.Members) >= n {
			return fmt.Errorf("faults: partition %d: isolates %d of %d resources (the main component would be empty)",
				i, len(w.Members), n)
		}
		for _, m := range w.Members {
			if m < 0 || m >= n {
				return fmt.Errorf("faults: partition %d: member %d out of range [0,%d)", i, m, n)
			}
		}
	}
	return nil
}
