// Open system: the library's dynamic engine end to end.
//
// A 500-resource complete graph serves continuous traffic: weighted
// tasks arrive as a Poisson stream at 80% of the system's service
// capacity, every arrival lands on ONE ingress resource (the dynamic
// analogue of the paper's single-source placement), each task departs
// after receiving service proportional to its weight, and a tenth of
// the machines churn in and out. No resource knows the global load:
// thresholds are re-estimated online from decaying local load averages
// spread by diffusion, and the user-controlled protocol migrates excess
// work every round.
//
// Despite the hotspot ingress and the churn, the steady-state overload
// fraction stays near zero — the threshold protocol does the spreading
// the dispatcher refuses to do.
//
// Act two replays the same regime on a HETEROGENEOUS fleet: half the
// machines are 1×, a quarter 4×, a quarter 10×. Service capacity,
// thresholds and dispatch all become speed-proportional — the tuner
// learns the (W/S_up)·s_r targets online — and the fast machines end
// up carrying proportionally more load while load-per-speed stays
// flat across the fleet.
//
// Run with: go run ./examples/opensystem
package main

import (
	"fmt"
	"log"

	lb "repro"
)

const (
	n   = 500
	rho = 0.8 // offered utilisation
	// E[min(Pareto(1,2), 20)] = 2 − 1/20: mean arrival weight.
	meanWeight = 1.95
)

func main() {
	fmt.Println("=== homogeneous fleet, hotspot ingress, churn ===")
	homogeneous()
	fmt.Println("\n=== heterogeneous fleet (1x / 4x / 10x), speed-weighted ingress, churn ===")
	heterogeneous()
}

func homogeneous() {
	sc := lb.DynamicScenario{
		Graph:    lb.CompleteGraph(n),
		Protocol: lb.UserBased,
		Epsilon:  0.5,
		Seed:     2026,
		Rounds:   800,
		Window:   100,
		Arrivals: lb.PoissonArrivals(rho*n/meanWeight, lb.ParetoDist(2, 20)),
		Service:  lb.WeightProportionalService(1),
		Dispatch: lb.HotspotDispatch(0),
		Churn:    lb.ChurnSpec{LeaveProb: 0.05, JoinProb: 0.05, MinUp: 9 * n / 10},
	}
	res, err := sc.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range res.Windows {
		fmt.Printf("rounds %4d-%-4d  overload %5.2f%%  p99 load %6.1f  in flight %6.0f  up %d\n",
			w.Start, w.End, 100*w.OverloadFrac, w.P99Load, w.InFlightWeight, w.UpResources)
	}
	fmt.Printf("\nserved %d tasks (weight %.0f); %d still in flight\n",
		res.Departed, res.DepartedWeight, res.FinalInFlight)
	fmt.Printf("protocol moved %d tasks; churn re-homed %d across %d machine departures\n",
		res.Migrations, res.Rehomed, res.Downs)
	fmt.Printf("steady-state overload fraction: %.3f%%\n", 100*res.TailOverloadFrac(2))
}

func heterogeneous() {
	// Half the fleet 1×, a quarter 4×, a quarter 10× — total capacity
	// S = 500·(0.5·1 + 0.25·4 + 0.25·10) = 2000 unit-resource
	// equivalents (4× the homogeneous fleet). Arrivals are sized
	// against S, not n.
	speeds := make([]float64, n)
	totalSpeed := 0.0
	for r := range speeds {
		switch r % 4 {
		case 0, 1:
			speeds[r] = 1
		case 2:
			speeds[r] = 4
		case 3:
			speeds[r] = 10
		}
		totalSpeed += speeds[r]
	}
	sc := lb.DynamicScenario{
		Graph:    lb.CompleteGraph(n),
		Speeds:   speeds,
		Protocol: lb.UserBased,
		Epsilon:  0.5,
		Seed:     2026,
		Rounds:   800,
		Window:   100,
		Arrivals: lb.PoissonArrivals(rho*totalSpeed/meanWeight, lb.ParetoDist(2, 20)),
		Service:  lb.WeightProportionalService(1),
		Dispatch: lb.SpeedWeightedDispatch(),
		Churn:    lb.ChurnSpec{LeaveProb: 0.05, JoinProb: 0.05, MinUp: 9 * n / 10},
	}
	res, err := sc.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, w := range res.Windows {
		fmt.Printf("rounds %4d-%-4d  overload %5.2f%%  p99 load/speed %6.1f  in flight %6.0f  up %d\n",
			w.Start, w.End, 100*w.OverloadFrac, w.P99LoadPerSpeed, w.InFlightWeight, w.UpResources)
	}
	fmt.Printf("\nserved %d tasks (weight %.0f) on %.1fx the homogeneous capacity\n",
		res.Departed, res.DepartedWeight, totalSpeed/n)
	fmt.Printf("protocol moved %d tasks; churn re-homed %d across %d machine departures\n",
		res.Migrations, res.Rehomed, res.Downs)
	fmt.Printf("steady-state overload fraction: %.3f%%\n", 100*res.TailOverloadFrac(2))
}
