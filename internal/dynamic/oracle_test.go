package dynamic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stack"
	"repro/internal/task"
	"repro/internal/walk"
)

// keepService never completes a task and draws nothing, so the
// engine's per-resource streams feed the protocol alone, exactly as in
// a static run.
type keepService struct{}

func (keepService) Departures(_ *stack.Stack, _ []float64, _ float64, _ *rng.Rand, buf []int) []int {
	return buf
}
func (keepService) Name() string { return "keep" }

// TestEngineRoundIsPaperRound is the engine's oracle: run as a closed
// system — no arrivals, no departures, oracle thresholds
// T = (1+ε)·W/n + wmax, every task starting on resource 0 — the
// open-system engine must be the paper's static protocol round for
// round. A static core.State under AboveAverage{ε} with the same seed
// is stepped in lockstep from OnRound; after every round the two load
// vectors must agree bit for bit, at every worker count. At the end
// the static run must have balanced, and the engine's migration count
// and moved weight must equal the static totals exactly.
func TestEngineRoundIsPaperRound(t *testing.T) {
	type graphCase struct {
		g        *graph.Graph
		complete bool
		rounds   int // engine horizon, past every case's balancing time
	}
	graphs := []graphCase{
		{graph.Complete(64), true, 80},
		{graph.Grid2D(8, 8, true), false, 300},
		{graph.Hypercube(6), false, 150},
	}
	type protoCase struct {
		name     string
		complete bool // Algorithm 6.1 is defined on K_n only
		make     func(g *graph.Graph) core.Protocol
	}
	lazy := func(g *graph.Graph) walk.Kernel { return walk.NewLazy(walk.NewMaxDegree(g)) }
	protos := []protoCase{
		{"resource", false, func(g *graph.Graph) core.Protocol {
			return core.ResourceControlled{Kernel: lazy(g)}
		}},
		{"user", true, func(*graph.Graph) core.Protocol { return core.UserControlled{Alpha: 1} }},
		{"user-graph", false, func(*graph.Graph) core.Protocol { return core.UserControlledGraph{Alpha: 1} }},
		{"mixed", false, func(g *graph.Graph) core.Protocol {
			return core.Mixed{A: core.ResourceControlled{Kernel: lazy(g)},
				B: core.UserControlledGraph{Alpha: 1}, Period: 2}
		}},
	}
	laws := []struct {
		name string
		law  task.Distribution
	}{
		{"unit", task.Uniform{W: 1}},
		{"pareto", task.Pareto{Alpha: 2, Cap: 20}},
	}
	for _, gc := range graphs {
		g, n := gc.g, gc.g.N()
		for _, pc := range protos {
			if pc.complete && !gc.complete {
				continue
			}
			for _, law := range laws {
				for _, eps := range []float64{0.2, 0.5} {
					for _, seed := range []uint64{3, 17} {
						weights := law.law.Weights(4*n, rng.NewSeeded(seed))
						for _, workers := range []int{1, 2, 4} {
							name := fmt.Sprintf("%s/%s/%s/eps=%g/seed=%d/workers=%d",
								g.Name(), pc.name, law.name, eps, seed, workers)
							checkEngineIsPaperRound(t, name, g, pc.make(g), weights, eps, seed, workers, gc.rounds)
						}
					}
				}
			}
		}
	}
}

func checkEngineIsPaperRound(t *testing.T, name string, g *graph.Graph, p core.Protocol,
	weights []float64, eps float64, seed uint64, workers, rounds int) {
	t.Helper()
	n := g.N()
	static := core.NewState(g, task.NewSet(weights), make([]int, len(weights)),
		core.AboveAverage{Eps: eps}, seed)
	var migrations int64
	moved := 0.0
	var diverged string
	res, err := Run(Config{
		Graph:          g,
		Protocol:       p,
		Arrivals:       None{},
		Service:        keepService{},
		Tuner:          &OracleTuner{Eps: eps},
		InitialWeights: weights,
		Rounds:         rounds,
		Window:         rounds,
		Seed:           seed,
		Workers:        workers,
		OnRound: func(round int, s *core.State) {
			if !static.Balanced() {
				st := static.Step(p)
				migrations += int64(st.Migrations)
				moved += st.MovedWeight
			}
			if diverged != "" {
				return
			}
			for r := 0; r < n; r++ {
				if a, b := s.Load(r), static.Load(r); math.Float64bits(a) != math.Float64bits(b) {
					diverged = fmt.Sprintf("round %d: resource %d load %v (engine) vs %v (static)", round, r, a, b)
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if diverged != "" {
		t.Fatalf("%s: %s", name, diverged)
	}
	if !static.Balanced() {
		t.Fatalf("%s: static run not balanced after %d rounds", name, rounds)
	}
	if res.Migrations != migrations {
		t.Fatalf("%s: engine migrated %d tasks, static run %d", name, res.Migrations, migrations)
	}
	if math.Float64bits(res.MovedWeight) != math.Float64bits(moved) {
		t.Fatalf("%s: engine moved weight %v, static run %v", name, res.MovedWeight, moved)
	}
}
