package core

import (
	"errors"
	"fmt"
	"math"
)

// UserControlled is Algorithm 6.1 on the complete graph: in parallel,
// every task on an overloaded resource r migrates with probability
//
//	min(1, Alpha · ⌈φ_r/wmax⌉ · 1/b_r)
//
// to a resource chosen uniformly at random among the other n−1
// resources. Tasks know α, φ_r, wmax and b_r, as the paper assumes.
//
// Alpha = ε/(120(1+ε)) matches the Theorem 11 analysis;
// Alpha ≤ 1/(120n) matches Theorem 12. The Section 7 simulations use
// Alpha = 1 ("the factor we require in the analysis is quite
// conservative"), which is also our experiments' default.
type UserControlled struct {
	Alpha float64
}

// TheoryAlphaAboveAverage returns the Theorem 11 analysis constant
// α = ε/(120(1+ε)).
func TheoryAlphaAboveAverage(eps float64) float64 { return eps / (120 * (1 + eps)) }

// Name identifies the protocol.
func (p UserControlled) Name() string {
	return fmt.Sprintf("user-controlled(alpha=%g)", p.Alpha)
}

// leaveProbability returns the per-task migration probability for
// resource r, capped at 1. The wmax in the coin is the maximum weight
// of the tasks currently in the system (identical to Set.WMax in the
// static setting; in the open system the live maximum, so a departed
// heavyweight outlier cannot permanently suppress migration).
func (p UserControlled) leaveProbability(s *State, r int) float64 {
	br := s.Count(r)
	if br == 0 {
		return 0
	}
	phi := s.ResourcePotential(r)
	prob := p.Alpha * math.Ceil(phi/s.LiveWMax()) / float64(br)
	if prob > 1 {
		prob = 1
	}
	return prob
}

// Validate rejects a coin that never comes up: Alpha must be positive.
func (p UserControlled) Validate() error {
	if !(p.Alpha > 0) {
		return errors.New("core: UserControlled requires Alpha > 0")
	}
	return nil
}

// ProposeRange implements Protocol: it flips the leave coin for every
// task on each overloaded resource in [lo, hi) (bottom-to-top order)
// and samples destinations uniformly over the other resources. All
// randomness for resource r comes from r's own stream, keeping sharded
// execution deterministic.
func (p UserControlled) ProposeRange(s *State, lo, hi int, sc *ProposeScratch) {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	n := s.N()
	if n < 2 {
		return // nowhere to migrate on a single resource
	}
	for r := lo; r < hi; r++ {
		if !s.over[r] {
			continue
		}
		prob := p.leaveProbability(s, r)
		if prob == 0 {
			continue
		}
		rr := &s.rands[r]
		sc.idx = rr.AppendTrials(sc.idx[:0], s.stacks[r].Len(), prob)
		if len(sc.idx) == 0 {
			continue
		}
		sc.tasks = s.removeForMigration(r, sc.idx, sc.tasks[:0])
		for _, tk := range sc.tasks {
			dest := rr.Intn(n - 1)
			if dest >= r {
				dest++ // uniform over the n−1 other resources
			}
			sc.Moves = append(sc.Moves, Migration{Task: tk, Dest: int32(dest)})
		}
	}
}

// UserControlledGraph generalises Algorithm 6.1 to arbitrary graphs:
// identical coin, but the destination is a uniformly random neighbour
// of the current resource. The paper restricts its user-controlled
// analysis to complete graphs (where neighbour = any other resource);
// this variant supports the exploratory ablation E10.
type UserControlledGraph struct {
	Alpha float64
}

// Name identifies the protocol.
func (p UserControlledGraph) Name() string {
	return fmt.Sprintf("user-controlled-graph(alpha=%g)", p.Alpha)
}

// Validate rejects a coin that never comes up: Alpha must be positive.
func (p UserControlledGraph) Validate() error {
	if !(p.Alpha > 0) {
		return errors.New("core: UserControlledGraph requires Alpha > 0")
	}
	return nil
}

// ProposeRange implements Protocol.
func (p UserControlledGraph) ProposeRange(s *State, lo, hi int, sc *ProposeScratch) {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	inner := UserControlled{Alpha: p.Alpha}
	g := s.Graph()
	for r := lo; r < hi; r++ {
		if !s.over[r] {
			continue
		}
		prob := inner.leaveProbability(s, r)
		if prob == 0 || g.Degree(r) == 0 {
			continue
		}
		rr := &s.rands[r]
		sc.idx = rr.AppendTrials(sc.idx[:0], s.stacks[r].Len(), prob)
		if len(sc.idx) == 0 {
			continue
		}
		sc.tasks = s.removeForMigration(r, sc.idx, sc.tasks[:0])
		for _, tk := range sc.tasks {
			dest := g.Neighbor(r, rr.Intn(g.Degree(r)))
			sc.Moves = append(sc.Moves, Migration{Task: tk, Dest: int32(dest)})
		}
	}
}

// Mixed alternates two protocols — the "mixed protocols, which are both
// resource-based and user-based" direction from the paper's
// conclusion. Rounds 0, Period, 2·Period, … run A; all others run B.
type Mixed struct {
	A, B   Protocol
	Period int // every Period-th round runs A; must be ≥ 1
}

// Name identifies the protocol.
func (p Mixed) Name() string {
	return fmt.Sprintf("mixed(%s|%s,period=%d)", p.A.Name(), p.B.Name(), p.Period)
}

// Validate checks the schedule and both sub-protocols.
func (p Mixed) Validate() error {
	if p.Period < 1 {
		return errors.New("core: Mixed requires Period >= 1")
	}
	for _, sub := range []Protocol{p.A, p.B} {
		if v, ok := sub.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// due returns the sub-protocol scheduled for the given round.
func (p Mixed) due(round int) Protocol {
	if p.Period < 1 {
		panic("core: Mixed requires Period >= 1")
	}
	if round%p.Period == 0 {
		return p.A
	}
	return p.B
}

// ProposeRange implements Protocol by delegating to the due
// sub-protocol.
func (p Mixed) ProposeRange(s *State, lo, hi int, sc *ProposeScratch) {
	p.due(s.round).ProposeRange(s, lo, hi, sc)
}
