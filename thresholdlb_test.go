package thresholdlb

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestQuickstartScenario(t *testing.T) {
	sc := Scenario{
		Graph:    CompleteGraph(50),
		Weights:  UnitWeights(500),
		Epsilon:  0.2,
		Protocol: UserBased,
		Alpha:    1,
		Seed:     1,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Balanced || res.Rounds == 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

func TestResourceBasedOnTorus(t *testing.T) {
	sc := Scenario{
		Graph:    TorusGraph(6, 6),
		Weights:  TwoPointWeights(200, 4, 25),
		Epsilon:  0.5,
		Protocol: ResourceBased,
		LazyWalk: true,
		Seed:     2,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Balanced {
		t.Fatalf("torus run did not balance: %+v", res)
	}
}

func TestTightThresholdDefaults(t *testing.T) {
	// Epsilon 0 selects the tight thresholds for both families.
	for _, proto := range []ProtocolKind{ResourceBased, UserBased} {
		sc := Scenario{
			Graph:    CompleteGraph(20),
			Weights:  UnitWeights(100),
			Epsilon:  0,
			Protocol: proto,
			Seed:     3,
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !res.Balanced {
			t.Fatalf("%v tight run did not balance", proto)
		}
	}
}

func TestUserBasedRejectsNonCompleteGraph(t *testing.T) {
	sc := Scenario{
		Graph:    TorusGraph(4, 4),
		Weights:  UnitWeights(64),
		Epsilon:  0.2,
		Protocol: UserBased,
	}
	if _, err := sc.Run(); err == nil || !strings.Contains(err.Error(), "complete graph") {
		t.Fatalf("expected complete-graph error, got %v", err)
	}
}

func TestUserBasedGraphAndMixed(t *testing.T) {
	for _, proto := range []ProtocolKind{UserBasedGraph, MixedBased} {
		sc := Scenario{
			Graph:    TorusGraph(5, 5),
			Weights:  UnitWeights(150),
			Epsilon:  0.5,
			Protocol: proto,
			LazyWalk: true,
			Seed:     4,
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if !res.Balanced {
			t.Fatalf("%v did not balance", proto)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	good := Scenario{Graph: CompleteGraph(4), Weights: UnitWeights(8)}
	cases := []struct {
		mutate func(*Scenario)
		want   string
	}{
		{func(s *Scenario) { s.Graph = nil }, "Graph is required"},
		{func(s *Scenario) { s.Weights = nil }, "Weights is required"},
		{func(s *Scenario) { s.Weights = []float64{} }, "Weights is required"},
		{func(s *Scenario) { s.Weights = []float64{1, 0.5} }, "below 1"},
		{func(s *Scenario) { s.Placement = []int{0} }, "placement has"},
		{func(s *Scenario) { s.Placement = make([]int, 8); s.Placement[0] = 99 }, "invalid resource"},
		{func(s *Scenario) { s.Placement = make([]int, 8); s.Placement[7] = -1 }, "invalid resource"},
		{func(s *Scenario) { s.Alpha = -1 }, "Alpha"},
		{func(s *Scenario) { s.Epsilon = -0.1 }, "Epsilon"},
		// NaN would run the whole round cap without a move (α) or take
		// the tight threshold (ε); an infinite value is no setting either.
		{func(s *Scenario) { s.Alpha = math.NaN() }, "Alpha"},
		{func(s *Scenario) { s.Alpha = math.Inf(1) }, "Alpha"},
		{func(s *Scenario) { s.Epsilon = math.NaN() }, "Epsilon"},
		{func(s *Scenario) { s.Epsilon = math.Inf(1) }, "Epsilon"},
		{func(s *Scenario) { s.Protocol = UserBasedGraph; s.Alpha = math.NaN() }, "Alpha"},
		{func(s *Scenario) { s.Protocol = UserBased; s.Graph = TorusGraph(2, 4) }, "complete graph"},
		{func(s *Scenario) { s.Protocol = ProtocolKind(99) }, "unknown protocol"},
		{func(s *Scenario) {
			s.Graph = CustomGraph("islands", 4, [][2]int{{0, 1}, {2, 3}})
		}, "connected"},
	}
	for _, c := range cases {
		sc := good
		c.mutate(&sc)
		if _, err := sc.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("want error containing %q, got %v", c.want, err)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	sc := Scenario{
		Graph:    ExpanderGraph(64, 4, 7),
		Weights:  ParetoWeights(300, 1.5, 20, 9),
		Epsilon:  0.3,
		Protocol: ResourceBased,
		LazyWalk: true,
		Seed:     11,
	}
	a, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sc.Run()
	if a.Rounds != b.Rounds || a.Migrations != b.Migrations {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestGraphConstructors(t *testing.T) {
	cases := []struct {
		g       *Graph
		n, dmin int
	}{
		{CompleteGraph(6), 6, 5},
		{GridGraph(3, 4), 12, 2},
		{TorusGraph(3, 3), 9, 4},
		{HypercubeGraph(3), 8, 3},
		{ExpanderGraph(10, 3, 1), 10, 3},
		{CliquePendantGraph(8, 2), 8, 2},
	}
	for _, c := range cases {
		if c.g.N() != c.n {
			t.Fatalf("%s: n=%d want %d", c.g.Name(), c.g.N(), c.n)
		}
		if c.g.MinDegree() != c.dmin {
			t.Fatalf("%s: min degree %d want %d", c.g.Name(), c.g.MinDegree(), c.dmin)
		}
	}
	er := ErdosRenyiGraph(40, 0.3, 5)
	if !er.Connected() {
		t.Fatal("ErdosRenyiGraph must return a connected sample")
	}
}

func TestWeightHelpers(t *testing.T) {
	if w := UnitWeights(5); len(w) != 5 || w[3] != 1 {
		t.Fatalf("unit weights %v", w)
	}
	tp := TwoPointWeights(10, 3, 7)
	heavy := 0
	for _, w := range tp {
		if w == 7 {
			heavy++
		}
	}
	if heavy != 3 {
		t.Fatalf("twopoint weights %v", tp)
	}
	for _, w := range ParetoWeights(100, 2, 50, 1) {
		if w < 1 || w > 50 {
			t.Fatalf("pareto weight %v", w)
		}
	}
	for _, w := range ExponentialWeights(100, 3, 1) {
		if w < 1 {
			t.Fatalf("exponential weight %v", w)
		}
	}
}

func TestAnalysisHelpers(t *testing.T) {
	g := CompleteGraph(20)
	if mt := MixingTime(g); mt < 1 || mt > 3 {
		t.Fatalf("K20 lazy mixing time %d", mt)
	}
	if h := MaxHittingTime(g); h < 18 || h > 20 {
		t.Fatalf("H(K20)=%v want 19", h)
	}
	if gap := SpectralGap(g, 1); gap < 0.4 || gap > 1 {
		t.Fatalf("lazy K20 gap %v", gap)
	}
}

func TestPotentialTraceExposed(t *testing.T) {
	sc := Scenario{
		Graph:           CompleteGraph(20),
		Weights:         UnitWeights(200),
		Epsilon:         0.2,
		Protocol:        UserBased,
		Seed:            5,
		RecordPotential: true,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PotentialTrace) != res.Rounds+1 {
		t.Fatalf("trace length %d rounds %d", len(res.PotentialTrace), res.Rounds)
	}
}

func TestProtocolKindString(t *testing.T) {
	names := map[ProtocolKind]string{
		ResourceBased:    "resource-based",
		UserBased:        "user-based",
		UserBasedGraph:   "user-based-graph",
		MixedBased:       "mixed",
		ProtocolKind(42): "ProtocolKind(42)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String()=%q", int(k), k.String())
		}
	}
}

func TestEstimatedThresholds(t *testing.T) {
	sc := Scenario{
		Graph:               TorusGraph(8, 8),
		Weights:             UnitWeights(256),
		Epsilon:             0.5,
		Protocol:            ResourceBased,
		LazyWalk:            true,
		Seed:                6,
		EstimatedThresholds: true,
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Balanced {
		t.Fatalf("estimated-threshold run did not balance: %+v", res)
	}
	// Tight threshold + estimation is rejected.
	sc.Epsilon = 0
	if _, err := sc.Run(); err == nil || !strings.Contains(err.Error(), "Epsilon > 0") {
		t.Fatalf("expected epsilon error, got %v", err)
	}
}

func TestDynamicScenarioSteadyState(t *testing.T) {
	// The public face of the acceptance scenario at reduced size:
	// Poisson arrivals at rho = 0.8 with heavy-tailed weights, routed
	// uniformly, served proportionally to weight, thresholds self-tuned
	// from decaying load averages spread by diffusion.
	sc := DynamicScenario{
		Graph:    CompleteGraph(200),
		Protocol: UserBased,
		Epsilon:  0.5,
		Seed:     11,
		Rounds:   400,
		Window:   100,
		Arrivals: PoissonArrivals(0.8*200/1.95, ParetoDist(2, 20)),
		Service:  WeightProportionalService(1),
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 || res.Departed == 0 || len(res.Windows) != 4 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if frac := res.TailOverloadFrac(2); frac >= 0.05 {
		t.Fatalf("steady-state overload fraction %v, want < 0.05", frac)
	}
	again, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if again.Migrations != res.Migrations || again.FinalWeight != res.FinalWeight {
		t.Fatalf("nondeterministic dynamic run: %+v vs %+v", res, again)
	}
}

func TestDynamicScenarioChurnAndStreaming(t *testing.T) {
	sc := DynamicScenario{
		Graph:            TorusGraph(8, 8),
		Protocol:         MixedBased,
		LazyWalk:         true,
		Seed:             4,
		Rounds:           300,
		Window:           60,
		Arrivals:         BurstArrivals(20, 40, ExponentialDist(2)),
		Service:          GeometricService(0.1),
		Dispatch:         HotspotDispatch(0),
		Churn:            ChurnSpec{LeaveProb: 0.1, JoinProb: 0.1, MinUp: 32},
		CheckInvariants:  true,
		OracleThresholds: true,
	}
	sub := sc.Subscribe(ObsSubOptions{Capacity: 64, Kinds: ObsMask(KindWindow)})
	res, err := sc.Run()
	sc.Obs.Close()
	if err != nil {
		t.Fatal(err)
	}
	var streamed []ObsEvent
	for evs := sub.Poll(nil); len(evs) > 0; evs = sub.Poll(nil) {
		streamed = append(streamed, evs...)
	}
	if len(streamed) != len(res.Windows) || len(streamed) != 5 {
		t.Fatalf("streaming windows %d, result windows %d", len(streamed), len(res.Windows))
	}
	for i, ev := range streamed {
		if ev.Window.End != res.Windows[i].End {
			t.Fatalf("streamed window %d ends at round %d, result window at %d", i, ev.Window.End, res.Windows[i].End)
		}
	}
	if res.Downs == 0 || res.Rehomed == 0 {
		t.Fatalf("churn never fired: %+v", res)
	}
}

func TestDynamicScenarioValidation(t *testing.T) {
	good := func() DynamicScenario {
		return DynamicScenario{
			Graph:    CompleteGraph(8),
			Rounds:   10,
			Arrivals: PoissonArrivals(1, UnitDist()),
			Service:  GeometricService(0.5),
		}
	}
	cases := []struct {
		mutate func(*DynamicScenario)
		want   string
	}{
		{func(s *DynamicScenario) { s.Graph = nil }, "Graph is required"},
		{func(s *DynamicScenario) { s.Arrivals = nil }, "Arrivals is required"},
		{func(s *DynamicScenario) { s.Service = nil }, "Service is required"},
		{func(s *DynamicScenario) { s.Rounds = 0 }, "Rounds"},
		{func(s *DynamicScenario) { s.Epsilon = -1 }, "Epsilon"},
		{func(s *DynamicScenario) { s.Alpha = -2 }, "Alpha"},
		{func(s *DynamicScenario) { s.Epsilon = math.NaN() }, "Epsilon"},
		{func(s *DynamicScenario) { s.Epsilon = math.Inf(1) }, "Epsilon"},
		{func(s *DynamicScenario) { s.Epsilon = math.NaN(); s.OracleThresholds = true }, "Epsilon"},
		{func(s *DynamicScenario) { s.Alpha = math.NaN() }, "Alpha"},
		{func(s *DynamicScenario) { s.Alpha = math.Inf(1) }, "Alpha"},
		{func(s *DynamicScenario) { s.TunerDecay = math.NaN() }, "TunerDecay"},
		{func(s *DynamicScenario) { s.TunerDecay = -0.5 }, "TunerDecay"},
		{func(s *DynamicScenario) { s.TunerDecay = math.Inf(-1) }, "TunerDecay"},
		{func(s *DynamicScenario) { s.TunerEvery = -3 }, "TunerEvery"},
		{func(s *DynamicScenario) { s.TunerEvery = -3; s.OracleThresholds = true }, "TunerEvery"},
		{func(s *DynamicScenario) { s.TunerSteps = -1 }, "TunerSteps"},
		{func(s *DynamicScenario) { s.Protocol = UserBased; s.Graph = TorusGraph(2, 4) }, "complete graph"},
		{func(s *DynamicScenario) { s.Protocol = ProtocolKind(99) }, "unknown protocol"},
		{func(s *DynamicScenario) { s.InitialWeights = []float64{0.2} }, "below 1"},
		{func(s *DynamicScenario) {
			topo, err := SynthTopology(8, 2, 1)
			if err != nil {
				t.Fatal(err)
			}
			s.Dispatch = LocalityRehome(topo)
		}, "only the re-home slot"},
		{func(s *DynamicScenario) {
			s.Graph = CustomGraph("islands", 4, [][2]int{{0, 1}, {2, 3}})
		}, "connected"},
	}
	for _, c := range cases {
		sc := good()
		c.mutate(&sc)
		if _, err := sc.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("want error containing %q, got %v", c.want, err)
		}
	}
}

// TestSingleResourceGraph runs every protocol on K_1, which has no
// edges: the protocols that walk (ResourceBased, MixedBased),
// diffusion-estimated thresholds and the dynamic self-tuner return an
// error naming the missing edge instead of panicking; the user
// protocols balance in 0 rounds, and run in the open system under
// oracle thresholds.
func TestSingleResourceGraph(t *testing.T) {
	const edgeErr = "a graph with at least one edge"
	type kase struct {
		name    string
		run     func() error
		wantErr string // "" = must succeed
	}
	var cases []kase
	for _, p := range []ProtocolKind{ResourceBased, UserBased, UserBasedGraph, MixedBased} {
		walkErr := ""
		if p == ResourceBased || p == MixedBased {
			walkErr = edgeErr
		}
		static := Scenario{Graph: CompleteGraph(1), Weights: UnitWeights(5), Epsilon: 0.2, Protocol: p, Seed: 1}
		estimated := static
		estimated.EstimatedThresholds = true
		dynamicRun := func(oracle bool) func() error {
			sc := DynamicScenario{
				Graph:            CompleteGraph(1),
				Protocol:         p,
				Rounds:           50,
				Arrivals:         PoissonArrivals(0.5, UnitDist()),
				Service:          GeometricService(0.5),
				OracleThresholds: oracle,
				Seed:             1,
			}
			return func() error {
				res, err := sc.Run()
				if err == nil && res.Rounds != 50 {
					return fmt.Errorf("ran %d rounds, want 50", res.Rounds)
				}
				return err
			}
		}
		cases = append(cases,
			kase{"static/" + p.String(), func() error {
				res, err := static.Run()
				if err == nil && (!res.Balanced || res.Rounds != 0 || res.Migrations != 0) {
					return fmt.Errorf("result %+v, want balanced in 0 rounds with no moves", res)
				}
				return err
			}, walkErr},
			kase{"static-estimated/" + p.String(), func() error { _, err := estimated.Run(); return err }, edgeErr},
			kase{"dynamic-oracle/" + p.String(), dynamicRun(true), walkErr},
			kase{"dynamic-selftuned/" + p.String(), dynamicRun(false), edgeErr},
		)
	}
	for _, c := range cases {
		var err error
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("%s panicked: %v", c.name, v)
				}
			}()
			err = c.run()
		}()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}
