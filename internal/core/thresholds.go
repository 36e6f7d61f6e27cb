// Package core implements the paper's primary contribution: the
// threshold-based load-balancing protocols for weighted tasks.
//
//   - Algorithm 5.1 (resource-controlled): overloaded resources push
//     their cutting/above tasks to random-walk neighbours; works on
//     arbitrary graphs. Theorem 3 bounds the balancing time by
//     O(τ(G)·log m) for above-average thresholds, Theorem 7 by
//     O(H(G)·ln W) for tight thresholds.
//   - Algorithm 6.1 (user-controlled): every task on an overloaded
//     resource of a complete graph tosses a coin with probability
//     α·⌈φ_r/wmax⌉·(1/b_r) and migrates to a uniformly random other
//     resource. Theorems 11/12 bound the expected balancing time by
//     O((wmax/wmin)·log m) and O(n·(wmax/wmin)·log m) respectively.
//
// The package also provides the extensions the paper's conclusion
// raises: a mixed resource+user protocol, a user-controlled variant on
// arbitrary graphs, and non-uniform thresholds.
package core

import (
	"fmt"

	"repro/internal/task"
)

// Thresholds computes the per-resource threshold vector for a task set
// on n resources. All the paper's policies are uniform; NonUniform and
// FixedVector support the extension and the diffusion-estimated case.
type Thresholds interface {
	// Values returns a length-n vector of thresholds.
	Values(ts *task.Set, n int) []float64
	// Name identifies the policy in reports.
	Name() string
}

func uniformVec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// AboveAverage is the Section 5.1/6.1 threshold
// T = (1+ε)·W/n + wmax with ε > 0.
type AboveAverage struct{ Eps float64 }

// Values implements Thresholds.
func (a AboveAverage) Values(ts *task.Set, n int) []float64 {
	if a.Eps <= 0 {
		panic("core: AboveAverage requires eps > 0")
	}
	return uniformVec(n, (1+a.Eps)*ts.W()/float64(n)+ts.WMax())
}

// Name identifies the policy.
func (a AboveAverage) Name() string { return fmt.Sprintf("above-average(eps=%g)", a.Eps) }

// TightResource is the Section 5.2 threshold T = W/n + 2·wmax used by
// the resource-controlled protocol's tight analysis (Theorem 7).
type TightResource struct{}

// Values implements Thresholds.
func (TightResource) Values(ts *task.Set, n int) []float64 {
	return uniformVec(n, ts.W()/float64(n)+2*ts.WMax())
}

// Name identifies the policy.
func (TightResource) Name() string { return "tight-resource(W/n+2wmax)" }

// TightUser is the Section 6.2 threshold T = W/n + wmax used by the
// user-controlled protocol's tight analysis (Theorem 12).
type TightUser struct{}

// Values implements Thresholds.
func (TightUser) Values(ts *task.Set, n int) []float64 {
	return uniformVec(n, ts.W()/float64(n)+ts.WMax())
}

// Name identifies the policy.
func (TightUser) Name() string { return "tight-user(W/n+wmax)" }

// FixedVector supplies externally computed thresholds — e.g. from the
// diffusion average-estimation substrate (the paper's footnote 1: "the
// thresholds are provided externally"). The vector must be length n at
// use time.
type FixedVector struct {
	V     []float64
	Label string
}

// Values implements Thresholds.
func (f FixedVector) Values(ts *task.Set, n int) []float64 {
	if len(f.V) != n {
		panic(fmt.Sprintf("core: FixedVector has %d entries, need %d", len(f.V), n))
	}
	return append([]float64(nil), f.V...)
}

// Name identifies the policy.
func (f FixedVector) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return "fixed"
}

// NonUniform perturbs a base policy with per-resource additive slack —
// the "non-uniform thresholds" extension from the paper's conclusion.
// Slack must be non-negative so every threshold stays feasible.
type NonUniform struct {
	Base  Thresholds
	Slack []float64
}

// Values implements Thresholds.
func (p NonUniform) Values(ts *task.Set, n int) []float64 {
	if len(p.Slack) != n {
		panic(fmt.Sprintf("core: NonUniform slack has %d entries, need %d", len(p.Slack), n))
	}
	v := p.Base.Values(ts, n)
	for i := range v {
		if p.Slack[i] < 0 {
			panic("core: NonUniform slack must be non-negative")
		}
		v[i] += p.Slack[i]
	}
	return v
}

// Name identifies the policy.
func (p NonUniform) Name() string { return "nonuniform(" + p.Base.Name() + ")" }

// FromEstimates builds a FixedVector threshold (1+eps)·est_r + wmax
// from per-resource average-load estimates (e.g. diffusion output).
// Pass eps = 0 for the tight-user shape.
func FromEstimates(est []float64, eps, wmax float64) FixedVector {
	v := make([]float64, len(est))
	for i, e := range est {
		v[i] = (1+eps)*e + wmax
	}
	return FixedVector{V: v, Label: fmt.Sprintf("estimated(eps=%g)", eps)}
}

// Proportional models heterogeneous resources with speeds s_r (the
// Adolphs–Berenbrink extension the related-work section discusses):
// resource r's fair share of the total weight is W·s_r/S with
// S = Σ s_r, and its threshold is (1+ε)·W·s_r/S + wmax. All speeds
// must be positive; Eps must be positive so every resource keeps
// headroom above its share. Σ_r T_r > W, so a balanced state always
// exists.
type Proportional struct {
	Speeds []float64
	Eps    float64
}

// Values implements Thresholds.
func (p Proportional) Values(ts *task.Set, n int) []float64 {
	if len(p.Speeds) != n {
		panic(fmt.Sprintf("core: Proportional has %d speeds, need %d", len(p.Speeds), n))
	}
	if p.Eps <= 0 {
		panic("core: Proportional requires eps > 0")
	}
	total := 0.0
	for _, s := range p.Speeds {
		if s <= 0 {
			panic("core: Proportional speeds must be positive")
		}
		total += s
	}
	v := make([]float64, n)
	for i, s := range p.Speeds {
		v[i] = (1+p.Eps)*ts.W()*s/total + ts.WMax()
	}
	return v
}

// Name identifies the policy.
func (p Proportional) Name() string { return fmt.Sprintf("proportional(eps=%g)", p.Eps) }

// ShareInto writes the speed-proportional thresholds
//
//	dst[r] = (1+ε)·W·s_r/total + wmax
//
// into dst without allocating — the open-system form of Values, where
// the caller supplies the live aggregates (W and wmax track the
// in-flight population, and total is Σ s_r over the UP resources only,
// so thresholds target each live resource's fair share W·s_r/S_up of
// the current weight). dst must have length len(Speeds). This is the
// hook the dynamic tuners use to re-target heterogeneous fleets every
// refresh on the allocation-free round path.
func (p Proportional) ShareInto(dst []float64, w, wmax, total float64) {
	if len(dst) != len(p.Speeds) {
		panic(fmt.Sprintf("core: ShareInto dst has %d entries for %d speeds", len(dst), len(p.Speeds)))
	}
	if p.Eps <= 0 {
		panic("core: Proportional requires eps > 0")
	}
	if total <= 0 {
		panic("core: Proportional requires a positive total speed")
	}
	perSpeed := (1 + p.Eps) * w / total
	for i, s := range p.Speeds {
		dst[i] = perSpeed*s + wmax
	}
}
