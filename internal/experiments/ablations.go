package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/potential"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/walk"
)

// PotentialValidation (E8) empirically validates the three analysis
// devices the proofs rest on:
//
//   - Lemma 1: with T = (1+ε)W/n + wmax, at every step at least an
//     ε/(1+ε) fraction of resources can accept a wmax-weight task.
//   - Observation 4: the resource-controlled potential never increases.
//   - Lemma 10: the user-controlled potential drops by a constant
//     factor per round in expectation.
//   - Lemma 5: the resource-controlled tight potential halves per
//     2·H(G) phase in expectation (we check the ≤ 3/4 mean ratio).
func PotentialValidation(cfg Config) *Table {
	cfg = cfg.Defaults()
	n, m := 100, 1000
	if cfg.Quick {
		n, m = 50, 400
	}
	const eps = 0.2
	t := &Table{
		ID:     "potential",
		Title:  "empirical validation of Lemma 1, Observation 4, Lemma 5, Lemma 10",
		Header: []string{"check", "quantity", "measured", "theory"},
	}

	// Lemma 1: minimum accept fraction along user-controlled runs.
	gK := graph.Complete(n)
	minFracs := sim.Run(cfg.Trials, cfg.Workers, func(trial int, seed uint64) float64 {
		ts := buildWeighted(m, task.TwoPoint{Heavy: 20, K: m / 50}, seed)
		s := core.NewState(gK, ts, singleSourcePlacement(ts, n, seed), core.AboveAverage{Eps: eps}, seed)
		p := core.UserControlled{Alpha: 1}
		minFrac := 1.0
		for i := 0; i < 100000 && !s.Balanced(); i++ {
			if fr := s.AcceptFraction(); fr < minFrac {
				minFrac = fr
			}
			s.Step(p)
		}
		return minFrac
	}, cfg.Seed+10)
	worst := 1.0
	for _, v := range minFracs {
		worst = math.Min(worst, v)
	}
	t.AddRow("Lemma 1", "min accept fraction", f("%.4f", worst), f(">= eps/(1+eps) = %.4f", eps/(1+eps)))

	// Observation 4 + Lemma 5: resource-controlled tight potential.
	// The workload is sized so runs span several 2·H(G) phases —
	// otherwise every trace ends inside its first phase and the phase
	// ratio degenerates to Φ(end)/Φ(0) = 0.
	gT := graph.Grid2D(6, 6, true)
	kernel := walk.NewLazy(walk.NewMaxDegree(gT))
	h := walk.MaxHittingTime(kernel, 1e-8, 2_000_000)
	phase := int(math.Round(2 * h))
	mono := true
	var phaseRatios stats.Online
	traces := sim.Run(cfg.Trials, cfg.Workers, func(trial int, seed uint64) []float64 {
		ts := buildWeighted(16*gT.N(), task.UniformRange{Lo: 1, Hi: 8}, seed)
		s := core.NewState(gT, ts, singleSourcePlacement(ts, gT.N(), seed), core.TightResource{}, seed)
		res := core.Run(s, core.ResourceControlled{Kernel: kernel},
			core.RunOptions{MaxRounds: 5_000_000, RecordPotential: true})
		return res.PotentialTrace
	}, cfg.Seed+11)
	var phasesToDrain stats.Online
	var w0 float64
	for _, tr := range traces {
		if ok, _ := potential.NonIncreasing(tr, 1e-9); !ok {
			mono = false
		}
		for _, ratio := range potential.PhaseDropRatios(tr, phase) {
			phaseRatios.Add(ratio)
		}
		if tz := potential.TimeToZero(tr); tz >= 0 {
			phasesToDrain.Add(float64(tz) / float64(phase))
		}
		if len(tr) > 0 && tr[0] > w0 {
			w0 = tr[0]
		}
	}
	t.AddRow("Observation 4", "potential monotone (all trials)", f("%v", mono), "true")
	t.AddRow("Lemma 5", f("mean phi(t+2H)/phi(t), 2H=%d", phase),
		f("%.3f", phaseRatios.Mean()), "<= 0.75")
	t.AddRow("Lemma 5+Thm 6", "phases of 2H to drain potential",
		f("%.2f", phasesToDrain.Mean()),
		f("<= 4(1+ln s0) = %.0f", 4*(1+math.Log(math.Max(w0, 1)))))

	// Lemma 10: user-controlled above-average drift.
	userTraces := sim.Run(cfg.Trials, cfg.Workers, func(trial int, seed uint64) []float64 {
		ts := buildWeighted(m, task.TwoPoint{Heavy: 8, K: m / 20}, seed)
		s := core.NewState(gK, ts, singleSourcePlacement(ts, n, seed), core.AboveAverage{Eps: eps}, seed)
		res := core.Run(s, core.UserControlled{Alpha: 1},
			core.RunOptions{MaxRounds: 1_000_000, RecordPotential: true})
		return res.PotentialTrace
	}, cfg.Seed+12)
	var monoUser int
	for _, tr := range userTraces {
		if ok, _ := potential.NonIncreasing(tr, 1e-9); !ok {
			monoUser++
		}
	}
	est := estimateFromTraces(userTraces)
	t.AddRow("Lemma 10", "pooled per-round potential drop delta", f("%.4f", est),
		"> 0 (const); analysis needs alpha*eps/(2(1+eps))*wmin/wmax")
	t.AddRow("(contrast)", "user traces with an increase", f("%d/%d", monoUser, len(userTraces)),
		"> 0 expected: user potential may rise transiently")
	t.AddNote("trials: %d; user workload two-point (wmax=8)", cfg.Trials)
	return t
}

func estimateFromTraces(traces [][]float64) float64 {
	return potential.MeanDrop(traces)
}

// DiffusionThresholds (E9) closes the loop on footnote 1: thresholds
// are not handed to the protocol by an oracle but estimated by
// continuous diffusion of the initial loads, then the
// resource-controlled protocol runs against the estimated thresholds.
func DiffusionThresholds(cfg Config) *Table {
	cfg = cfg.Defaults()
	side := 16
	if cfg.Quick {
		side = 8
	}
	g := graph.Grid2D(side, side, true)
	n := g.N()
	m := 4 * n
	kernel := walk.NewLazy(walk.NewMaxDegree(g))
	const eps = 0.5
	t := &Table{
		ID:     "diffusion",
		Title:  "diffusion-estimated thresholds vs oracle thresholds (torus)",
		Header: []string{"thresholds", "diff steps", "max dev of estimate", "rounds"},
	}
	type outcome struct {
		steps  int
		dev    float64
		rounds float64
	}
	run := func(oracle bool) outcome {
		res := sim.Run(cfg.Trials, cfg.Workers, func(trial int, seed uint64) outcome {
			ts := buildWeighted(m, task.UniformRange{Lo: 1, Hi: 4}, seed)
			placement := singleSourcePlacement(ts, n, seed)
			var policy core.Thresholds = core.AboveAverage{Eps: eps}
			var steps int
			var dev float64
			if !oracle {
				loads := make([]float64, n)
				for id, r := range placement {
					loads[r] += ts.Weight(id)
				}
				est, st := diffusion.RunUntil(kernel, loads, 0.05, 1_000_000)
				steps = st
				dev = diffusion.MaxDeviation(est, ts.W()/float64(n))
				policy = core.FromEstimates(est, eps, ts.WMax())
			}
			s := core.NewState(g, ts, placement, policy, seed)
			r := core.Run(s, core.ResourceControlled{Kernel: kernel}, core.RunOptions{MaxRounds: 2_000_000})
			rounds := float64(r.Rounds)
			if !r.Balanced {
				rounds = 2_000_000
			}
			return outcome{steps: steps, dev: dev, rounds: rounds}
		}, cfg.Seed+13)
		var agg outcome
		for _, o := range res {
			agg.steps += o.steps
			agg.dev = math.Max(agg.dev, o.dev)
			agg.rounds += o.rounds
		}
		agg.steps /= len(res)
		agg.rounds /= float64(len(res))
		return agg
	}
	or := run(true)
	t.AddRow("oracle (1+eps)W/n+wmax", "-", "-", f("%.1f", or.rounds))
	es := run(false)
	t.AddRow("diffusion estimate", f("%d", es.steps), f("%.3f", es.dev), f("%.1f", es.rounds))
	t.AddNote("diffusion stops when every estimate is within 5%% of the true average (footnote 1: mixing-time many steps)")
	return t
}

// Ablation (E10) compares design choices the paper raises: the mixed
// resource+user protocol from the conclusion, the walk kernel, the
// user-controlled variant on sparse graphs, and non-uniform thresholds.
func Ablation(cfg Config) *Table {
	cfg = cfg.Defaults()
	side := 12
	if cfg.Quick {
		side = 6
	}
	g := graph.Grid2D(side, side, true)
	n := g.N()
	m := 4 * n
	const eps = 0.5
	t := &Table{
		ID:     "ablation",
		Title:  "ablations on the torus: protocol, kernel, thresholds",
		Header: []string{"variant", "rounds", "migrations"},
	}
	type variant struct {
		name string
		make func() (core.Thresholds, func() core.Protocol)
	}
	kernels := map[string]walk.Kernel{
		"maxdeg":      walk.NewMaxDegree(g),
		"lazy-maxdeg": walk.NewLazy(walk.NewMaxDegree(g)),
		"metropolis":  walk.NewMetropolis(g),
	}
	slack := make([]float64, n)
	for i := range slack {
		if i%2 == 1 {
			slack[i] = 4 // half the resources advertise extra headroom
		}
	}
	variants := []variant{
		{"resource(maxdeg)", func() (core.Thresholds, func() core.Protocol) {
			return core.AboveAverage{Eps: eps}, func() core.Protocol {
				return core.ResourceControlled{Kernel: kernels["maxdeg"]}
			}
		}},
		{"resource(lazy-maxdeg)", func() (core.Thresholds, func() core.Protocol) {
			return core.AboveAverage{Eps: eps}, func() core.Protocol {
				return core.ResourceControlled{Kernel: kernels["lazy-maxdeg"]}
			}
		}},
		{"resource(metropolis)", func() (core.Thresholds, func() core.Protocol) {
			return core.AboveAverage{Eps: eps}, func() core.Protocol {
				return core.ResourceControlled{Kernel: kernels["metropolis"]}
			}
		}},
		{"resource-single-task", func() (core.Thresholds, func() core.Protocol) {
			return core.AboveAverage{Eps: eps}, func() core.Protocol {
				return core.ResourceControlledSingle{Kernel: kernels["lazy-maxdeg"]}
			}
		}},
		{"user-graph(alpha=1)", func() (core.Thresholds, func() core.Protocol) {
			return core.AboveAverage{Eps: eps}, func() core.Protocol {
				return core.UserControlledGraph{Alpha: 1}
			}
		}},
		{"mixed(resource|user,period=2)", func() (core.Thresholds, func() core.Protocol) {
			return core.AboveAverage{Eps: eps}, func() core.Protocol {
				return core.Mixed{
					A:      core.ResourceControlled{Kernel: kernels["lazy-maxdeg"]},
					B:      core.UserControlledGraph{Alpha: 1},
					Period: 2,
				}
			}
		}},
		{"resource, non-uniform T", func() (core.Thresholds, func() core.Protocol) {
			return core.NonUniform{Base: core.AboveAverage{Eps: eps}, Slack: slack}, func() core.Protocol {
				return core.ResourceControlled{Kernel: kernels["lazy-maxdeg"]}
			}
		}},
	}
	for _, v := range variants {
		policy, mkProto := v.make()
		type met struct{ rounds, migs float64 }
		res := sim.Run(cfg.Trials, cfg.Workers, func(trial int, seed uint64) met {
			ts := buildWeighted(m, task.UniformRange{Lo: 1, Hi: 4}, seed)
			s := core.NewState(g, ts, singleSourcePlacement(ts, n, seed), policy, seed)
			r := core.Run(s, mkProto(), core.RunOptions{MaxRounds: 2_000_000})
			rounds := float64(r.Rounds)
			if !r.Balanced {
				rounds = 2_000_000
			}
			return met{rounds: rounds, migs: float64(r.Migrations)}
		}, cfg.Seed+14)
		var ro, mi stats.Online
		for _, x := range res {
			ro.Add(x.rounds)
			mi.Add(x.migs)
		}
		t.AddRow(v.name, meanCell(ro), f("%.0f", mi.Mean()))
	}
	t.AddNote("same torus, workload (uniform weights in [1,4], single source) and trial seeds for all variants")
	t.AddNote("on a regular graph the Metropolis kernel coincides with the max-degree kernel, so those rows must match exactly")
	return t
}
