// Rack loss and recovery: the failure-domain subsystem end to end.
//
// A 1000-resource fleet is laid out as 8 racks in 2 zones, with
// speed classes 1×/2×/4×/10× interleaved so every rack mixes fast and
// slow machines. A compiled failure model takes whole racks down with
// a mean time between failures of 400 rounds and repairs them after
// ~30 — the same correlated trace (same seed) replayed twice, once
// with the engine's original uniform evacuation and once with
// speed-weighted re-homing, so the only difference is WHERE the
// displaced tasks land.
//
// The recovery summaries printed at the end are the point: the peak
// post-failure overload fraction and the time-to-drain both improve
// when a dead rack's work is handed to the machines with
// proportionally more headroom instead of being scattered uniformly.
//
// Run with: go run ./examples/rackloss
package main

import (
	"fmt"
	"log"
	"math"

	lb "repro"
)

const (
	n     = 1000
	racks = 8
	zones = 2
	rho   = 0.8
	// E[min(Pareto(1,2), 20)] = 2 − 1/20: mean arrival weight.
	meanWeight = 1.95
)

func main() {
	topo, err := lb.SynthTopology(n, racks, zones)
	if err != nil {
		log.Fatal(err)
	}
	// One correlated failure trace, shared by both runs.
	model := lb.FailureModel{Topo: topo, RackMTBF: 400, RackMTTR: 30}
	events, err := model.Compile(800, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d correlated churn events over 800 rounds\n\n", len(events))

	fmt.Println("=== uniform evacuation (the original engine behaviour) ===")
	uniform := run(topo, events, lb.UniformRehome())
	fmt.Println("\n=== speed-weighted evacuation (fast machines absorb the dead rack) ===")
	speedy := run(topo, events, lb.SpeedWeightedRehome())

	fmt.Printf("\npeak post-failure overload: %.2f%% (uniform) vs %.2f%% (speed-weighted)\n",
		100*uniform.PeakPostFailureOverload(), 100*speedy.PeakPostFailureOverload())
	u, s := uniform.MeanDrainRounds(), speedy.MeanDrainRounds()
	if !math.IsNaN(u) && !math.IsNaN(s) {
		fmt.Printf("mean time-to-drain:         %.1f rounds (uniform) vs %.1f rounds (speed-weighted)\n", u, s)
	}
}

func run(topo *lb.Topology, events []lb.ChurnEvent, rehome lb.Dispatch) lb.DynamicResult {
	speeds := make([]float64, n)
	total := 0.0
	for r := range speeds {
		speeds[r] = []float64{1, 2, 4, 10}[r%4]
		total += speeds[r]
	}
	sc := lb.DynamicScenario{
		Graph:    lb.ExpanderGraph(n, 8, 11),
		Speeds:   speeds,
		Protocol: lb.ResourceBased,
		Epsilon:  0.5,
		Seed:     2026,
		Rounds:   800,
		Window:   100,
		Arrivals: lb.PoissonArrivals(rho*total/meanWeight, lb.ParetoDist(2, 20)),
		Service:  lb.WeightProportionalService(1),
		Dispatch: lb.PowerOfDDispatch(2),
		Rehome:   rehome,
		Churn:    lb.ChurnSpec{MinUp: n / 4, Events: events},
	}
	res, err := sc.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range res.Windows {
		fmt.Printf("  rounds %4d-%-4d overload %6.2f%%  rehomed/round %7.1f  up %4d\n",
			w.Start, w.End, 100*w.OverloadFrac, w.RehomeRate, w.UpResources)
	}
	drained := 0
	for _, rs := range res.Recoveries {
		if rs.Drained() {
			drained++
		}
	}
	fmt.Printf("  %d recovery episodes (%d drained), %d tasks re-homed (weight %.0f)\n",
		len(res.Recoveries), drained, res.Rehomed, res.RehomedWeight)
	return res
}
