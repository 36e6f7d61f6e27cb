package experiments

import (
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/walk"
)

// DynamicRecover compares the four evacuation re-home policies on the
// ROADMAP's open question — post-failure overload transients after a
// rack loss. One scenario, four policies, identical seeds: a
// heterogeneous fleet (speed classes 1/2/4/10 interleaved, so every
// rack mixes fast and slow machines) on a cluster graph that mirrors
// an 8-rack/2-zone topology serves ρ = 0.8 Poisson traffic; at round
// 150 rack 0 dies whole (1/8 of the fleet in one round) and rejoins at
// 300. Per policy the table reports the recovery transient — peak
// post-failure overload fraction, time to drain back to the
// pre-failure baseline, and the evacuation migration load — plus the
// steady overload once recovered.
//
// Uniform is the engine's original behaviour and the baseline the
// non-uniform policies must beat: power-of-2 re-homing steers
// evacuees away from already-loaded machines (lower peak / faster
// drain), speed-weighted hands a dead rack's work to the machines
// with proportionally more headroom, and locality trades transient
// height for domain proximity (evacuees stay in the dead rack's
// zone).
type recoverSummary struct {
	peak      float64 // peak post-failure overload fraction (the rack-loss episode)
	drain     float64 // rounds to drain back to the pre-failure baseline
	censored  bool    // the episode never drained within the run
	evacW     float64 // evacuation migration load of the episode (weight)
	steady    float64 // tail overload after recovery
	conserved bool
}

// DynamicRecover is the dynrecover experiment driver.
func DynamicRecover(cfg Config) *Table {
	cfg = cfg.Defaults()
	n, racks, zones := 2000, 8, 2
	rounds, window, warm := 600, 100, 4
	lossRound, repairRound := 150, 300
	if cfg.Quick {
		n = 400
		rounds, window, warm = 300, 50, 4
		lossRound, repairRound = 80, 160
	}
	topo, err := recovery.Synth(n, racks, zones)
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	g := topo.ClusterGraph(6, 2, cfg.Seed)
	speeds := make([]float64, n)
	totalSpeed := 0.0
	for r := range speeds {
		speeds[r] = []float64{1, 2, 4, 10}[r%4]
		totalSpeed += speeds[r]
	}
	rack0 := topo.RackList(0, nil)
	events := []dynamic.ChurnEvent{
		{Round: lossRound, DownList: rack0},
		{Round: repairRound, UpList: rack0},
	}
	policies := []struct {
		name string
		mk   func() dynamic.Dispatch
	}{
		{"uniform", func() dynamic.Dispatch { return dynamic.UniformDispatch{} }},
		{"power-of-2", func() dynamic.Dispatch { return dynamic.PowerOfD{D: 2} }},
		{"locality", func() dynamic.Dispatch { return &recovery.Locality{Topo: topo} }},
		{"speed-weighted", func() dynamic.Dispatch { return &dynamic.SpeedWeighted{} }},
	}

	t := &Table{
		ID: "dynrecover",
		Title: f("failure recovery: re-home policies on a rack loss (n=%d, %d racks/%d zones, 10:1 speeds, rho=0.8; rack 0 dies at %d, rejoins at %d)",
			n, racks, zones, lossRound, repairRound),
		Header: []string{"rehome", "peak overload%", "drain rounds", "evac weight", "steady overload%", "conserved"},
	}
	for _, pol := range policies {
		out := sim.Run(cfg.Trials, cfg.Workers, func(trial int, seed uint64) recoverSummary {
			res, err := dynamic.Run(dynamic.Config{
				Graph:    g,
				Speeds:   speeds,
				Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Arrivals: dynamic.Poisson{Rate: 0.8 * totalSpeed / dynParetoMean,
					Weights: task.Pareto{Alpha: 2, Cap: 20}},
				Service:  dynamic.WeightProportional{Rate: 1},
				Dispatch: dynamic.PowerOfD{D: 2},
				Rehome:   pol.mk(),
				Tuner: &dynamic.SelfTuner{Eps: 0.5, Decay: 0.8, Every: 10, Steps: 2,
					Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Churn:  dynamic.Churn{MinUp: n / 4, Events: events},
				Rounds: rounds,
				Window: window,
				Seed:   seed,
			})
			if err != nil {
				return recoverSummary{conserved: false}
			}
			s := recoverSummary{steady: res.TailOverloadFrac(warm), conserved: true}
			for _, rs := range res.Recoveries {
				if rs.Round != lossRound {
					continue // the repair round can open a trivial episode; skip it
				}
				s.peak = rs.PeakOverload
				s.evacW = rs.EvacWeight
				if rs.Drained() {
					s.drain = float64(rs.DrainRounds)
				} else {
					s.censored = true
				}
			}
			return s
		}, cfg.Seed)
		var peak, drain, evacW, steady stats.Online
		censored, broken := 0, 0
		for _, s := range out {
			if !s.conserved {
				broken++
				continue
			}
			peak.Add(100 * s.peak)
			evacW.Add(s.evacW)
			steady.Add(100 * s.steady)
			if s.censored {
				censored++
			} else {
				drain.Add(s.drain)
			}
		}
		drainCell := meanCell(drain)
		if censored > 0 {
			drainCell = f("%s (+%d censored)", drainCell, censored)
		}
		t.AddRow(pol.name, meanCell(peak), drainCell, meanCell(evacW), meanCell(steady), f("%v", broken == 0))
		if broken > 0 {
			t.AddNote("%s: %d/%d trials failed conservation and were excluded", pol.name, broken, len(out))
		}
	}
	t.AddNote("peak/drain: the rack-loss episode's max overload fraction and rounds back to the pre-failure baseline (mean over %d trials)", cfg.Trials)
	t.AddNote("evac weight: task weight re-homed in the failure round; locality keeps it inside the dead rack's zone")
	t.AddNote("golden determinism per policy (workers 1/2/4/8 x seeds 1/2/3) is pinned by internal/recovery tests")
	return t
}
