// Package walk implements the random-walk machinery the paper's bounds
// are expressed in: transition kernels with uniform stationary
// distribution (Section 4.1), the spectral gap µ and mixing time
// τ(G) = 4·ln n/µ (Lemma 2), total-variation mixing measured exactly by
// evolving distributions, and hitting times H(G) computed exactly
// (linear solves), iteratively (Gauss–Seidel) and by Monte-Carlo
// simulation. These quantities drive Theorem 3 (O(τ·log m)) and
// Theorem 7 (O(H·ln W)) and the Table 1 reproduction.
package walk

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Kernel is a random-walk transition kernel P on an undirected graph.
// All kernels in this package keep the uniform distribution stationary,
// as the paper requires ("the results hold for all random walks where
// the stationary distribution equals the uniform distribution").
type Kernel interface {
	// Graph returns the underlying graph.
	Graph() *graph.Graph
	// Step samples the successor of v (possibly v itself).
	Step(v int, r *rng.Rand) int
	// NeighborProb returns P(v→w) for an edge {v,w}. Callers must
	// only pass actual neighbours; the self-loop mass is
	// 1 − Σ_w NeighborProb(v,w).
	NeighborProb(v, w int) float64
	// SelfProb returns P(v→v).
	SelfProb(v int) float64
	// Name identifies the kernel in reports.
	Name() string
}

// MaxDegree is the paper's standard walk for non-regular graphs:
// P_{ij} = 1/d for {i,j} ∈ E and P_{ii} = (d − d_i)/d, with d the
// maximum degree. P is symmetric, hence doubly stochastic, hence
// uniform-stationary.
type MaxDegree struct {
	g *graph.Graph
	d int
}

// NewMaxDegree returns the max-degree kernel for g.
// It panics on an empty or edgeless graph.
func NewMaxDegree(g *graph.Graph) *MaxDegree {
	if g.N() == 0 || g.MaxDegree() == 0 {
		panic("walk: MaxDegree kernel needs a graph with at least one edge")
	}
	return &MaxDegree{g: g, d: g.MaxDegree()}
}

// Graph returns the underlying graph.
func (k *MaxDegree) Graph() *graph.Graph { return k.g }

// Step samples the next vertex: each of the d "slots" is taken with
// probability 1/d; slots beyond deg(v) stay put.
func (k *MaxDegree) Step(v int, r *rng.Rand) int {
	i := r.Intn(k.d)
	if i < k.g.Degree(v) {
		return k.g.Neighbor(v, i)
	}
	return v
}

// NeighborProb returns 1/d.
func (k *MaxDegree) NeighborProb(v, w int) float64 { return 1 / float64(k.d) }

// SelfProb returns (d − deg(v))/d.
func (k *MaxDegree) SelfProb(v int) float64 {
	return float64(k.d-k.g.Degree(v)) / float64(k.d)
}

// Name identifies the kernel.
func (k *MaxDegree) Name() string { return "maxdeg" }

// Lazy wraps another kernel, staying put with probability 1/2. A lazy
// walk is aperiodic on every graph (including bipartite ones, where the
// non-lazy walk can oscillate forever) and has non-negative spectrum.
type Lazy struct {
	base Kernel
}

// NewLazy returns the 1/2-lazy version of base.
func NewLazy(base Kernel) *Lazy { return &Lazy{base: base} }

// Graph returns the underlying graph.
func (k *Lazy) Graph() *graph.Graph { return k.base.Graph() }

// Step stays with probability 1/2, else delegates.
func (k *Lazy) Step(v int, r *rng.Rand) int {
	if r.Bool(0.5) {
		return v
	}
	return k.base.Step(v, r)
}

// NeighborProb halves the base probability.
func (k *Lazy) NeighborProb(v, w int) float64 { return k.base.NeighborProb(v, w) / 2 }

// SelfProb returns 1/2 + base self-probability/2.
func (k *Lazy) SelfProb(v int) float64 { return 0.5 + k.base.SelfProb(v)/2 }

// Name identifies the kernel.
func (k *Lazy) Name() string { return "lazy(" + k.base.Name() + ")" }

// Metropolis is the Metropolis–Hastings symmetrisation of the simple
// walk: P_{ij} = 1/max(d_i, d_j) for {i,j} ∈ E, remainder on the
// diagonal. Also symmetric and uniform-stationary, but typically with a
// larger spectral gap than the max-degree walk on irregular graphs.
type Metropolis struct {
	g *graph.Graph
}

// NewMetropolis returns the Metropolis kernel for g.
func NewMetropolis(g *graph.Graph) *Metropolis {
	if g.N() == 0 || g.MaxDegree() == 0 {
		panic("walk: Metropolis kernel needs a graph with at least one edge")
	}
	return &Metropolis{g: g}
}

// Graph returns the underlying graph.
func (k *Metropolis) Graph() *graph.Graph { return k.g }

// Step proposes a uniform neighbour and accepts with d_v/max(d_v,d_w).
func (k *Metropolis) Step(v int, r *rng.Rand) int {
	dv := k.g.Degree(v)
	w := k.g.Neighbor(v, r.Intn(dv))
	dw := k.g.Degree(w)
	if dw <= dv || r.Bool(float64(dv)/float64(dw)) {
		return w
	}
	return v
}

// NeighborProb returns 1/max(d_v, d_w).
func (k *Metropolis) NeighborProb(v, w int) float64 {
	dv, dw := k.g.Degree(v), k.g.Degree(w)
	return 1 / float64(max(dv, dw))
}

// SelfProb returns the diagonal remainder.
func (k *Metropolis) SelfProb(v int) float64 {
	p := 1.0
	for _, w := range k.g.Neighbors(v) {
		p -= k.NeighborProb(v, int(w))
	}
	if p < 0 {
		p = 0 // guard against rounding
	}
	return p
}

// Name identifies the kernel.
func (k *Metropolis) Name() string { return "metropolis" }

// EdgeUniform is implemented by kernels whose off-diagonal transition
// probability is one constant p for every edge (MaxDegree and its lazy
// wrapper). EvolveDistRange and EvolvePairRange use it to replace two
// interface calls per edge with a fused constant-coefficient gather —
// the diffusion hot path of the open-system self-tuner.
type EdgeUniform interface {
	// EdgeProb returns (p, true) when P(v→w) = p for every edge {v,w},
	// or (0, false) when the edge probabilities vary.
	EdgeProb() (float64, bool)
}

// EdgeProb implements EdgeUniform: every edge carries 1/d.
func (k *MaxDegree) EdgeProb() (float64, bool) { return 1 / float64(k.d), true }

// EdgeProb implements EdgeUniform when the base kernel does.
func (k *Lazy) EdgeProb() (float64, bool) {
	if eu, ok := k.base.(EdgeUniform); ok {
		if p, ok := eu.EdgeProb(); ok {
			return p / 2, true
		}
	}
	return 0, false
}

// EvolveDistRange computes entries [lo, hi) of next = dist · P by
// gathering over each vertex's neighbourhood: next[v] = dist[v]·P(v,v)
// + Σ_{w ∈ N(v)} dist[w]·P(w,v). It requires a symmetric kernel
// (P(w,v) = P(v,w)), which every kernel in this package satisfies —
// the package-wide uniform-stationarity contract. Because each output
// entry is produced by exactly one call with a fixed-order inner loop,
// disjoint ranges can run on concurrent workers and the result is
// bit-identical for every range partition, which is what the sharded
// self-tuner needs for deterministic replay.
func EvolveDistRange(k Kernel, dist, next []float64, lo, hi int) {
	g := k.Graph()
	n := g.N()
	if len(dist) != n || len(next) != n {
		panic("walk: EvolveDistRange dimension mismatch")
	}
	if p, ok := edgeProb(k); ok {
		// Uniform edge probability: row sums are 1, so
		// P(v,v) = 1 − p·deg(v) and the whole update collapses to one
		// constant-coefficient pass over the CSR row. The row sum is
		// unrolled by four but adds one neighbour at a time in CSR
		// order, so it rounds exactly as a plain loop does.
		for v := lo; v < hi; v++ {
			nb := g.Neighbors(v)
			deg := float64(len(nb))
			sum := 0.0
			for ; len(nb) >= 4; nb = nb[4:] {
				sum = sum + dist[nb[0]] + dist[nb[1]] + dist[nb[2]] + dist[nb[3]]
			}
			for _, w := range nb {
				sum += dist[w]
			}
			next[v] = dist[v] + p*(sum-deg*dist[v])
		}
		return
	}
	for v := lo; v < hi; v++ {
		acc := dist[v] * k.SelfProb(v)
		for _, w := range g.Neighbors(v) {
			acc += dist[w] * k.NeighborProb(v, int(w))
		}
		next[v] = acc
	}
}

// EvolvePairRange advances two vectors over [lo, hi) at once:
// nx = x · P and ny = y · P, each entry bit-identical to what
// EvolveDistRange writes for that vector alone. Under a uniform edge
// probability one pass reads each CSR row once for both sums, and the
// two independent add chains overlap; other kernels run as two
// EvolveDistRange calls. The four slices must be distinct.
func EvolvePairRange(k Kernel, x, nx, y, ny []float64, lo, hi int) {
	g := k.Graph()
	n := g.N()
	if len(x) != n || len(nx) != n || len(y) != n || len(ny) != n {
		panic("walk: EvolvePairRange dimension mismatch")
	}
	p, ok := edgeProb(k)
	if !ok {
		EvolveDistRange(k, x, nx, lo, hi)
		EvolveDistRange(k, y, ny, lo, hi)
		return
	}
	for v := lo; v < hi; v++ {
		nb := g.Neighbors(v)
		deg := float64(len(nb))
		sx, sy := 0.0, 0.0
		for ; len(nb) >= 4; nb = nb[4:] {
			sx = sx + x[nb[0]] + x[nb[1]] + x[nb[2]] + x[nb[3]]
			sy = sy + y[nb[0]] + y[nb[1]] + y[nb[2]] + y[nb[3]]
		}
		for _, w := range nb {
			sx += x[w]
			sy += y[w]
		}
		nx[v] = x[v] + p*(sx-deg*x[v])
		ny[v] = y[v] + p*(sy-deg*y[v])
	}
}

func edgeProb(k Kernel) (float64, bool) {
	if eu, ok := k.(EdgeUniform); ok {
		return eu.EdgeProb()
	}
	return 0, false
}

// EvolveDist advances a probability distribution one step:
// next = dist · P. next must have length n; it is overwritten.
// O(n + m) using the CSR adjacency.
func EvolveDist(k Kernel, dist, next []float64) {
	g := k.Graph()
	n := g.N()
	if len(dist) != n || len(next) != n {
		panic("walk: EvolveDist dimension mismatch")
	}
	for i := range next {
		next[i] = 0
	}
	for v := 0; v < n; v++ {
		p := dist[v]
		if p == 0 {
			continue
		}
		next[v] += p * k.SelfProb(v)
		for _, w := range g.Neighbors(v) {
			next[w] += p * k.NeighborProb(v, int(w))
		}
	}
}

// TransitionMatrix materialises P as a dense n×n row-stochastic matrix.
// Intended for validation at small n (O(n²) memory).
func TransitionMatrix(k Kernel) [][]float64 {
	g := k.Graph()
	n := g.N()
	P := make([][]float64, n)
	for v := 0; v < n; v++ {
		P[v] = make([]float64, n)
		P[v][v] = k.SelfProb(v)
		for _, w := range g.Neighbors(v) {
			P[v][w] = k.NeighborProb(v, int(w))
		}
	}
	return P
}

// CheckDoublyStochastic verifies that every row and column of P sums to
// 1 within tol, which certifies the uniform stationary distribution.
func CheckDoublyStochastic(k Kernel, tol float64) error {
	g := k.Graph()
	n := g.N()
	colSum := make([]float64, n)
	for v := 0; v < n; v++ {
		row := k.SelfProb(v)
		colSum[v] += k.SelfProb(v)
		for _, w := range g.Neighbors(v) {
			p := k.NeighborProb(v, int(w))
			if p < 0 {
				return fmt.Errorf("walk: negative transition P(%d,%d)=%v", v, w, p)
			}
			row += p
			colSum[w] += p
		}
		if diff := row - 1; diff > tol || diff < -tol {
			return fmt.Errorf("walk: row %d sums to %v", v, row)
		}
	}
	for v, s := range colSum {
		if diff := s - 1; diff > tol || diff < -tol {
			return fmt.Errorf("walk: column %d sums to %v (stationary not uniform)", v, s)
		}
	}
	return nil
}
