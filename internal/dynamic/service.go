package dynamic

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/stack"
)

// Service decides which tasks complete on a resource each round.
type Service interface {
	// Departures appends to buf the strictly increasing stack positions
	// of the tasks on st that depart at the end of this round. rem maps
	// task ID → remaining service work and may be decremented; speed is
	// the resource's service speed (1 on homogeneous fleets) and scales
	// the discipline's per-round capacity; all randomness comes from r.
	Departures(st *stack.Stack, rem []float64, speed float64, r *rng.Rand, buf []int) []int
	// Name identifies the discipline in reports.
	Name() string
}

// WeightProportional models service time proportional to weight: every
// up resource works through Rate·speed weight-units per round, serving
// its stack bottom-first (FIFO — the oldest, already-accepted tasks are
// at the bottom), and a task departs once its remaining work (initially
// its weight) is done. Offered utilisation is therefore
// ρ = λ·E[w] / (Rate·S) for Poisson(λ) arrivals on a fleet of total
// speed S = Σ s_r (S = n when homogeneous), and the system is stable
// exactly when balancing keeps work spread so that ρ < 1.
type WeightProportional struct {
	Rate float64 // weight-units served per unit speed per round, > 0
}

// Departures implements Service.
func (s WeightProportional) Departures(st *stack.Stack, rem []float64, speed float64, r *rng.Rand, buf []int) []int {
	if !(s.Rate > 0) {
		panic("dynamic: WeightProportional.Rate must be > 0")
	}
	budget := s.Rate * speed
	for i := 0; i < st.Len() && budget > 0; i++ {
		id := st.Task(i).ID
		if rem[id] <= budget {
			budget -= rem[id]
			rem[id] = 0
			buf = append(buf, i)
			continue
		}
		rem[id] -= budget
		budget = 0
	}
	return buf
}

// Validate implements the optional config check.
func (s WeightProportional) Validate() error {
	if !(s.Rate > 0) {
		return fmt.Errorf("dynamic: WeightProportional.Rate %v must be > 0", s.Rate)
	}
	return nil
}

// Name identifies the discipline.
func (s WeightProportional) Name() string {
	return fmt.Sprintf("weight-proportional(rate=%g)", s.Rate)
}

// Geometric models memoryless holding times: each in-flight task
// departs independently with probability P per round (mean lifetime
// 1/P rounds), regardless of its position or weight — the
// infinite-server regime of Goldsztajn et al.'s self-learning
// threshold model. On a heterogeneous fleet a resource of speed s
// makes s independent service attempts per round, so the effective
// per-round departure probability is 1 − (1−P)^s (exactly P at
// speed 1, and the speed-1 arithmetic is untouched so homogeneous
// runs replay bit for bit).
type Geometric struct {
	P float64 // per-round departure probability at unit speed, in (0, 1]
}

// Departures implements Service.
func (g Geometric) Departures(st *stack.Stack, rem []float64, speed float64, r *rng.Rand, buf []int) []int {
	if !(g.P > 0 && g.P <= 1) {
		panic("dynamic: Geometric.P must be in (0, 1]")
	}
	p := g.P
	if speed != 1 {
		p = 1 - powCompl(1-g.P, speed)
	}
	return r.AppendTrials(buf, st.Len(), p)
}

// powCompl computes base^exp, the survival probability of exp
// independent service attempts. The discipline is a stateless value
// (it cannot memoise per-speed results), and this runs once per up
// resource per round, so integer exponents — the common case for
// speed profiles like 1/2/4/10 — take the square-and-multiply path
// (a few multiplications) instead of math.Pow.
func powCompl(base, exp float64) float64 {
	if i := int(exp); exp == float64(i) && i >= 0 && i <= 64 {
		out := 1.0
		for b := base; i > 0; i >>= 1 {
			if i&1 == 1 {
				out *= b
			}
			b *= b
		}
		return out
	}
	return math.Pow(base, exp)
}

// Validate implements the optional config check.
func (g Geometric) Validate() error {
	if !(g.P > 0 && g.P <= 1) {
		return fmt.Errorf("dynamic: Geometric.P %v must be in (0, 1]", g.P)
	}
	return nil
}

// Name identifies the discipline.
func (g Geometric) Name() string { return fmt.Sprintf("geometric(p=%g)", g.P) }
