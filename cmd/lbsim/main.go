// Command lbsim runs a single threshold-balancing scenario and prints
// the outcome, optionally with the potential trajectory.
//
// Usage examples:
//
//	lbsim -graph complete -n 1000 -m 5000 -proto user -eps 0.2
//	lbsim -graph torus -n 1024 -m 4096 -proto resource -eps 0.5 -lazy
//	lbsim -graph cliquependant -n 64 -k 4 -m 512 -proto resource -eps 0 -trace
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	lb "repro"
	"repro/internal/cli"
)

func main() {
	var (
		graphKind = flag.String("graph", "complete", "complete|grid|torus|hypercube|expander|gnp|cliquependant")
		n         = flag.Int("n", 100, "number of resources (rounded per family)")
		k         = flag.Int("k", 2, "family parameter: pendant links / expander degree")
		p         = flag.Float64("p", 0.1, "G(n,p) edge probability")
		m         = flag.Int("m", 1000, "number of tasks")
		heavy     = flag.Int("heavy", 0, "number of heavy tasks (two-point workload)")
		wmax      = flag.Float64("wmax", 50, "heavy task weight")
		proto     = flag.String("proto", "user", "user|resource|usergraph|mixed")
		eps       = flag.Float64("eps", 0.2, "threshold slack (0 = tight threshold)")
		alpha     = flag.Float64("alpha", 1, "user-protocol migration constant")
		lazy      = flag.Bool("lazy", false, "use the 1/2-lazy walk (resource protocol)")
		seed      = flag.Uint64("seed", 1, "RNG seed")
		maxRounds = flag.Int("maxrounds", 0, "round cap (0 = library default)")
		trace     = flag.Bool("trace", false, "print the potential trajectory")
		csvTrace  = flag.String("csvtrace", "", "write a per-round imbalance CSV (round,maxload,gap,gini,overloaded) to this file")
		spread    = flag.Bool("spread", false, "random initial placement instead of single-source")
	)
	flag.Parse()

	g, err := cli.GraphSpec{Kind: *graphKind, N: *n, K: *k, P: *p, Seed: *seed}.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}
	weights := lb.UnitWeights(*m)
	if *heavy > 0 {
		weights = lb.TwoPointWeights(*m, *heavy, *wmax)
	}
	var placement []int
	if *spread {
		placement = make([]int, *m)
		s := *seed
		for i := range placement {
			s = s*6364136223846793005 + 1442695040888963407
			placement[i] = int(s>>33) % g.N()
		}
	}
	kind, err := cli.Protocol(*proto)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}
	sc := lb.Scenario{
		Graph:           g,
		Weights:         weights,
		Placement:       placement,
		Epsilon:         *eps,
		Protocol:        kind,
		Alpha:           *alpha,
		LazyWalk:        *lazy,
		Seed:            *seed,
		MaxRounds:       *maxRounds,
		RecordPotential: *trace,
	}
	var csvFile *os.File
	if *csvTrace != "" {
		f, err := os.Create(*csvTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbsim:", err)
			os.Exit(1)
		}
		defer f.Close()
		csvFile = f
		fmt.Fprintln(csvFile, "round,maxload,gap,gini,overloaded")
		// The hook needs the threshold; derive it from the scenario's
		// own parameters (uniform policies only — good enough for CLI
		// tracing).
		W := sum(weights)
		wm := 1.0
		for _, w := range weights {
			if w > wm {
				wm = w
			}
		}
		thr := W/float64(g.N()) + 2*wm
		if *eps > 0 {
			thr = (1+*eps)*W/float64(g.N()) + wm
		}
		sc.OnRound = func(round int, loads []float64) {
			im := lb.MeasureImbalance(loads, thr)
			fmt.Fprintf(csvFile, "%d,%.3f,%.3f,%.4f,%d\n", round, im.Max, im.Gap, im.Gini, im.Overloaded)
		}
	}
	res, err := sc.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
	fmt.Printf("graph:       %s (n=%d, m_edges=%d, maxdeg=%d)\n", g.Name(), g.N(), g.M(), g.MaxDegree())
	fmt.Printf("tasks:       %d (total weight %.0f)\n", len(weights), sum(weights))
	fmt.Printf("protocol:    %s (eps=%g alpha=%g lazy=%v)\n", kind, *eps, *alpha, *lazy)
	fmt.Printf("balanced:    %v\n", res.Balanced)
	fmt.Printf("rounds:      %d\n", res.Rounds)
	fmt.Printf("migrations:  %d (weight %.0f)\n", res.Migrations, res.MovedWeight)
	if len(weights) > 1 {
		fmt.Printf("rounds/ln m: %.2f\n", float64(res.Rounds)/math.Log(float64(len(weights))))
	}
	if *trace {
		fmt.Println("potential trajectory:")
		for i, v := range res.PotentialTrace {
			if i%10 == 0 || i == len(res.PotentialTrace)-1 {
				fmt.Printf("  round %6d  phi=%.1f\n", i, v)
			}
		}
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
