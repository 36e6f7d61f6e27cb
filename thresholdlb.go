// Package thresholdlb is the public API of the threshold
// load-balancing library, a faithful implementation of
//
//	Berenbrink, Friedetzky, Mallmann-Trenn, Meshkinfamfard, Wastell:
//	"Threshold Load Balancing with Weighted Tasks"
//	(IPPS 2015; JPDC 113:218–226, 2018).
//
// n resources form an undirected graph; m ≥ n weighted tasks start in
// an arbitrary placement; every resource has the same threshold. The
// library runs either the paper's resource-controlled protocol
// (Algorithm 5.1, overloaded resources push excess tasks along a
// random walk) or its user-controlled protocol (Algorithm 6.1, tasks
// on overloaded resources of a complete graph migrate independently),
// and reports the balancing time.
//
// A minimal run:
//
//	g := thresholdlb.CompleteGraph(100)
//	sc := thresholdlb.Scenario{
//	    Graph:   g,
//	    Weights: thresholdlb.UnitWeights(1000),
//	    Epsilon: 0.2,
//	    Protocol: thresholdlb.UserBased,
//	    Alpha:   1,
//	    Seed:    42,
//	}
//	res, err := sc.Run()
//
// The heavy lifting lives in the internal packages (graph, walk, core,
// …); this package re-exports the pieces a downstream user needs.
package thresholdlb

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// Graph is an immutable undirected resource graph (CSR form).
type Graph = graph.Graph

// Result reports a completed balancing run.
type Result = core.RunResult

// CompleteGraph returns K_n — the topology of the paper's
// user-controlled analysis and Section 7 simulations.
func CompleteGraph(n int) *Graph { return graph.Complete(n) }

// GridGraph returns the rows×cols grid (no wraparound).
func GridGraph(rows, cols int) *Graph { return graph.Grid2D(rows, cols, false) }

// TorusGraph returns the rows×cols torus.
func TorusGraph(rows, cols int) *Graph { return graph.Grid2D(rows, cols, true) }

// HypercubeGraph returns the dim-dimensional hypercube (2^dim nodes).
func HypercubeGraph(dim int) *Graph { return graph.Hypercube(dim) }

// ExpanderGraph returns a random d-regular graph, an expander with high
// probability for d ≥ 3.
func ExpanderGraph(n, d int, seed uint64) *Graph {
	return graph.RandomRegular(n, d, rng.NewSeeded(seed))
}

// ErdosRenyiGraph returns a connected G(n,p) sample (resampling until
// connected, as the paper's Table 1 assumes p above the connectivity
// threshold).
func ErdosRenyiGraph(n int, p float64, seed uint64) *Graph {
	r := rng.NewSeeded(seed)
	return graph.GenerateConnected(1000, func() *Graph { return graph.ErdosRenyi(n, p, r) })
}

// CliquePendantGraph returns the Observation 8 lower-bound family: a
// clique on n−1 nodes plus one pendant node attached by k edges.
func CliquePendantGraph(n, k int) *Graph { return graph.CliquePendant(n, k) }

// CustomGraph builds a graph from an explicit edge list.
func CustomGraph(name string, n int, edges [][2]int) *Graph { return graph.Build(name, n, edges) }

// UnitWeights returns m unit weights (the classical uniform-ball
// setting).
func UnitWeights(m int) []float64 {
	w := make([]float64, m)
	for i := range w {
		w[i] = 1
	}
	return w
}

// TwoPointWeights returns m weights of which k are heavy and the rest
// are 1 — the Figure 1 workload.
func TwoPointWeights(m, k int, heavy float64) []float64 {
	return task.TwoPoint{Heavy: heavy, K: k}.Weights(m, rng.NewSeeded(0))
}

// ParetoWeights returns m heavy-tailed Pareto(1, alpha) weights capped
// at cap (0 = uncapped), drawn deterministically from seed.
func ParetoWeights(m int, alpha, cap float64, seed uint64) []float64 {
	return task.Pareto{Alpha: alpha, Cap: cap}.Weights(m, rng.NewSeeded(seed))
}

// ExponentialWeights returns m weights distributed 1+Exp with the given
// mean ≥ 1, drawn deterministically from seed.
func ExponentialWeights(m int, mean float64, seed uint64) []float64 {
	return task.Exponential{Mean: mean}.Weights(m, rng.NewSeeded(seed))
}

// ProtocolKind selects the migration protocol.
type ProtocolKind int

// The protocol families of the paper plus the conclusion's extensions.
const (
	// ResourceBased is Algorithm 5.1 on arbitrary graphs.
	ResourceBased ProtocolKind = iota
	// UserBased is Algorithm 6.1; the paper analyses it on complete
	// graphs. Run returns an error for non-complete graphs — use
	// UserBasedGraph there.
	UserBased
	// UserBasedGraph generalises Algorithm 6.1 to arbitrary graphs
	// (destinations are random neighbours).
	UserBasedGraph
	// MixedBased alternates ResourceBased and UserBasedGraph rounds —
	// the mixed protocol suggested in the paper's conclusion.
	MixedBased
)

// String names the protocol.
func (p ProtocolKind) String() string {
	switch p {
	case ResourceBased:
		return "resource-based"
	case UserBased:
		return "user-based"
	case UserBasedGraph:
		return "user-based-graph"
	case MixedBased:
		return "mixed"
	default:
		return fmt.Sprintf("ProtocolKind(%d)", int(p))
	}
}

// checkWalkable rejects a graph without edges for the protocols whose
// rounds move tasks along the max-degree random walk (ResourceBased and
// MixedBased): the walk has no kernel there.
func (p ProtocolKind) checkWalkable(g *Graph) error {
	if (p == ResourceBased || p == MixedBased) && g.MaxDegree() == 0 {
		return fmt.Errorf("thresholdlb: %v needs a graph with at least one edge for its random walk", p)
	}
	return nil
}

// Scenario describes one balancing problem. Zero values select the
// paper's defaults where they exist.
type Scenario struct {
	// Graph is the resource topology (required).
	Graph *Graph
	// Weights are the task weights, each ≥ 1 (required).
	Weights []float64
	// Placement maps task index → initial resource; nil places every
	// task on resource 0 (the Section 7 initial condition).
	Placement []int
	// Epsilon selects the threshold: > 0 gives the above-average
	// threshold (1+ε)W/n + wmax; 0 gives the tight threshold
	// (W/n + 2·wmax for resource-based, W/n + wmax for user-based).
	Epsilon float64
	// Protocol selects the migration rule.
	Protocol ProtocolKind
	// Alpha is the user-protocol migration constant; 0 means 1 (the
	// paper's simulation value).
	Alpha float64
	// LazyWalk makes the resource-protocol walk 1/2-lazy (recommended
	// on bipartite graphs such as grids and hypercubes).
	LazyWalk bool
	// Seed fixes all randomness; runs are fully deterministic.
	Seed uint64
	// MaxRounds caps the run (0 = library default).
	MaxRounds int
	// RecordPotential stores the potential trace in the result.
	RecordPotential bool
	// EstimatedThresholds derives the average load by decentralised
	// diffusion of the initial loads (the paper's footnote 1) instead
	// of using the oracle W/n. Requires Epsilon > 0 so the estimation
	// error is absorbed by the threshold slack.
	EstimatedThresholds bool
	// OnRound, if non-nil, is called after every round with the round
	// number (1-based) and a copy of the per-resource load vector —
	// the hook for live monitoring (see MeasureImbalance).
	OnRound func(round int, loads []float64)
}

// Run executes the scenario and returns the balancing statistics.
func (sc Scenario) Run() (Result, error) {
	if sc.Graph == nil {
		return Result{}, errors.New("thresholdlb: Scenario.Graph is required")
	}
	n := sc.Graph.N()
	if n == 0 {
		return Result{}, errors.New("thresholdlb: graph has no resources")
	}
	if len(sc.Weights) == 0 {
		return Result{}, errors.New("thresholdlb: Scenario.Weights is required")
	}
	for i, w := range sc.Weights {
		if !task.ValidWeight(w) {
			return Result{}, fmt.Errorf("thresholdlb: weight %v at index %d is below 1 or not finite (rescale so wmin ≥ 1)", w, i)
		}
	}
	if !sc.Graph.Connected() {
		return Result{}, errors.New("thresholdlb: graph must be connected")
	}
	ts := task.NewSet(sc.Weights)
	placement := sc.Placement
	if placement == nil {
		placement = make([]int, ts.M())
	} else if len(placement) != ts.M() {
		return Result{}, fmt.Errorf("thresholdlb: placement has %d entries for %d tasks", len(placement), ts.M())
	}
	for i, r := range placement {
		if r < 0 || r >= n {
			return Result{}, fmt.Errorf("thresholdlb: task %d placed on invalid resource %d", i, r)
		}
	}
	alpha := sc.Alpha
	if alpha == 0 {
		alpha = 1
	}
	if err := checkEpsilonAlpha(sc.Epsilon, alpha); err != nil {
		return Result{}, err
	}

	if err := sc.Protocol.checkWalkable(sc.Graph); err != nil {
		return Result{}, err
	}

	var policy core.Thresholds
	switch {
	case sc.EstimatedThresholds:
		if sc.Epsilon <= 0 {
			return Result{}, errors.New("thresholdlb: EstimatedThresholds requires Epsilon > 0 to absorb estimation error")
		}
		if sc.Graph.MaxDegree() == 0 {
			return Result{}, errors.New("thresholdlb: EstimatedThresholds needs a graph with at least one edge to diffuse over")
		}
		loads := make([]float64, n)
		for id, r := range placement {
			loads[r] += ts.Weight(id)
		}
		kernel := walk.NewLazy(walk.NewMaxDegree(sc.Graph))
		est, _ := diffusion.RunUntil(kernel, loads, 0.25*sc.Epsilon, 10_000_000)
		policy = core.FromEstimates(est, sc.Epsilon, ts.WMax())
	case sc.Epsilon > 0:
		policy = core.AboveAverage{Eps: sc.Epsilon}
	case sc.Protocol == ResourceBased || sc.Protocol == MixedBased:
		policy = core.TightResource{}
	default:
		policy = core.TightUser{}
	}

	mkKernel := func() walk.Kernel {
		var k walk.Kernel = walk.NewMaxDegree(sc.Graph)
		if sc.LazyWalk {
			k = walk.NewLazy(k)
		}
		return k
	}
	var proto core.Protocol
	switch sc.Protocol {
	case ResourceBased:
		proto = core.ResourceControlled{Kernel: mkKernel()}
	case UserBased:
		if !isComplete(sc.Graph) {
			return Result{}, errors.New("thresholdlb: UserBased requires the complete graph (the paper's model); use UserBasedGraph for other topologies")
		}
		proto = core.UserControlled{Alpha: alpha}
	case UserBasedGraph:
		proto = core.UserControlledGraph{Alpha: alpha}
	case MixedBased:
		proto = core.Mixed{
			A:      core.ResourceControlled{Kernel: mkKernel()},
			B:      core.UserControlledGraph{Alpha: alpha},
			Period: 2,
		}
	default:
		return Result{}, fmt.Errorf("thresholdlb: unknown protocol %v", sc.Protocol)
	}

	state := core.NewState(sc.Graph, ts, placement, policy, sc.Seed)
	opts := core.RunOptions{
		MaxRounds:       sc.MaxRounds,
		RecordPotential: sc.RecordPotential,
	}
	if sc.OnRound != nil {
		opts.OnRound = func(s *core.State, round int, _ core.StepStats) {
			sc.OnRound(round, s.Loads())
		}
	}
	res := core.Run(state, proto, opts)
	return res, nil
}

// Imbalance summarises how uneven a load vector is; see
// MeasureImbalance.
type Imbalance = metrics.Snapshot

// MeasureImbalance computes standard imbalance measures (max−avg gap,
// coefficient of variation, Gini coefficient, overloaded fraction) of
// a load vector against a uniform threshold.
func MeasureImbalance(loads []float64, threshold float64) Imbalance {
	return metrics.Measure(loads, threshold)
}

// checkEpsilonAlpha rejects a threshold slack that is not finite and
// ≥ 0 and a migration constant that is not finite and > 0. NaN fails
// both: it would pass a plain ε < 0 or α < 0 test and then silently
// pick the tight threshold or never migrate.
func checkEpsilonAlpha(eps, alpha float64) error {
	if !(eps >= 0) || math.IsInf(eps, 1) {
		return fmt.Errorf("thresholdlb: Epsilon %v must be non-negative and finite", eps)
	}
	if !(alpha > 0) || math.IsInf(alpha, 1) {
		return fmt.Errorf("thresholdlb: Alpha %v must be positive and finite", alpha)
	}
	return nil
}

func isComplete(g *Graph) bool {
	n := g.N()
	for v := 0; v < n; v++ {
		if g.Degree(v) != n-1 {
			return false
		}
	}
	return true
}

// MixingTime returns the exact 1/4-total-variation mixing time of the
// (lazy) max-degree walk on g, maximised over a set of representative
// start vertices — the quantity τ(G) in Theorem 3.
func MixingTime(g *Graph) int {
	k := walk.NewLazy(walk.NewMaxDegree(g))
	return walk.MixingTimeTV(k, walk.DefaultStarts(k), walk.DefaultMixingEps, 10_000_000)
}

// MaxHittingTime returns H(G) for the max-degree walk on g — the
// quantity in Theorem 7. O(n · solve); intended for n up to a few
// thousand.
func MaxHittingTime(g *Graph) float64 {
	k := walk.NewMaxDegree(g)
	return walk.MaxHittingTime(k, 1e-8, 2_000_000)
}

// SpectralGap estimates the spectral gap µ of the lazy max-degree walk.
func SpectralGap(g *Graph, seed uint64) float64 {
	k := walk.NewLazy(walk.NewMaxDegree(g))
	return walk.SpectralGap(k, 20000, rng.NewSeeded(seed))
}
