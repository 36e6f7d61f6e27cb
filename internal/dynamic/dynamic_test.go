package dynamic

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// paretoMean is E[min(Pareto(1,2), 20)] = 2 − 1/20, the mean arrival
// weight of the test workload below.
const paretoMean = 1.95

// rhoConfig builds the acceptance-criteria workload: CompleteGraph(n),
// Poisson arrivals at utilisation rho against unit service rate,
// Pareto(2) weights capped at 20, self-tuned thresholds.
func rhoConfig(n int, rho float64, proto core.Protocol, seed uint64) Config {
	g := graph.Complete(n)
	return Config{
		Graph:    g,
		Protocol: proto,
		Arrivals: Poisson{Rate: rho * float64(n) / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  WeightProportional{Rate: 1},
		Tuner: &SelfTuner{
			Eps: 0.5, Decay: 0.8, Every: 10, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g)),
		},
		Rounds: 600,
		Window: 100,
		Seed:   seed,
	}
}

// TestSteadyStateAtRho08 is the tentpole acceptance check: a 1000-
// resource complete graph under Poisson arrivals at ρ = 0.8 with
// Pareto weights and self-tuned thresholds reaches a steady state —
// the windowed overload fraction stays below 5% once the two warm-up
// windows are discarded — and the whole run is deterministic per seed.
func TestSteadyStateAtRho08(t *testing.T) {
	res, err := Run(rhoConfig(1000, 0.8, core.UserControlled{Alpha: 1}, 42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 || res.Departed == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if frac := res.TailOverloadFrac(2); math.IsNaN(frac) || frac >= 0.05 {
		t.Fatalf("steady-state overload fraction %v, want < 0.05", frac)
	}
	// Steady state: the in-flight weight per resource stays bounded
	// (far below what 600 rounds of unserved arrivals would pile up).
	last := res.Windows[len(res.Windows)-1]
	if perRes := last.InFlightWeight / 1000; perRes > 10 {
		t.Fatalf("in-flight weight per resource %v, system not draining", perRes)
	}
	// A fresh config (tuners are stateful) with the same seed must
	// reproduce the run bit for bit.
	again, err := Run(rhoConfig(1000, 0.8, core.UserControlled{Alpha: 1}, 42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("nondeterministic run:\n%+v\nvs\n%+v", res, again)
	}
}

// TestChurnConservesWeight is the second acceptance check: with
// resource churn enabled, every join/leave re-homes tasks without
// creating or destroying weight — CheckInvariants validates the
// conservation balance W(t) = arrived − departed after every round.
func TestChurnConservesWeight(t *testing.T) {
	g := graph.RandomRegular(200, 8, rng.NewSeeded(7))
	cfg := Config{
		Graph:    g,
		Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals: Poisson{Rate: 0.8 * 200 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  WeightProportional{Rate: 1},
		Tuner:    &SelfTuner{Eps: 0.5, Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Churn:    Churn{LeaveProb: 0.2, JoinProb: 0.2, MinUp: 100},
		Rounds:   400,
		Window:   50,
		Seed:     9,

		CheckInvariants: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Downs == 0 || res.Ups == 0 || res.Rehomed == 0 {
		t.Fatalf("churn never fired: downs=%d ups=%d rehomed=%d", res.Downs, res.Ups, res.Rehomed)
	}
	if diff := math.Abs(res.FinalWeight - (res.ArrivedWeight - res.DepartedWeight)); diff > 1e-6*(1+res.ArrivedWeight) {
		t.Fatalf("weight not conserved: in flight %v, arrived−departed %v",
			res.FinalWeight, res.ArrivedWeight-res.DepartedWeight)
	}
}

// nullProtocol never migrates — the "no balancing" control.
type nullProtocol struct{}

func (nullProtocol) ProposeRange(*core.State, int, int, *core.ProposeScratch) {}
func (nullProtocol) Name() string                                             { return "null" }

// TestHotspotNeedsBalancing routes every arrival to one ingress
// resource and checks that the migration protocol is what spreads the
// work: with balancing the hotspot's window-end max load is a small
// multiple of the mean, without it the hotspot holds almost everything.
func TestHotspotNeedsBalancing(t *testing.T) {
	g := graph.Complete(100)
	base := Config{
		Graph:    g,
		Arrivals: Poisson{Rate: 0.7 * 100 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  WeightProportional{Rate: 1},
		Dispatch: HotspotDispatch{Resource: 0},
		Tuner:    &SelfTuner{Eps: 0.5, Steps: 2, Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Rounds:   300,
		Window:   50,
		Seed:     3,
	}
	balanced := base
	balanced.Protocol = core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))}
	resBal, err := Run(balanced)
	if err != nil {
		t.Fatal(err)
	}
	unbalanced := base
	unbalanced.Protocol = nullProtocol{}
	resNull, err := Run(unbalanced)
	if err != nil {
		t.Fatal(err)
	}
	if resBal.Migrations == 0 {
		t.Fatal("hotspot run produced no migrations")
	}
	lastBal := resBal.Windows[len(resBal.Windows)-1]
	lastNull := resNull.Windows[len(resNull.Windows)-1]
	if lastBal.MaxLoad > lastNull.MaxLoad/4 {
		t.Fatalf("balancing barely helped: max load %v with protocol vs %v without",
			lastBal.MaxLoad, lastNull.MaxLoad)
	}
	if frac := resBal.TailOverloadFrac(2); frac >= 0.05 {
		t.Fatalf("hotspot overload fraction %v, want < 0.05", frac)
	}
}

// TestDrainScenario seeds the system and lets geometric departures
// empty it with no arrivals.
func TestDrainScenario(t *testing.T) {
	g := graph.Grid2D(8, 8, true)
	weights := task.Uniform{W: 2}.Weights(512, rng.NewSeeded(1))
	cfg := Config{
		Graph:          g,
		Protocol:       core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals:       None{},
		Service:        Geometric{P: 0.05},
		Tuner:          &OracleTuner{Eps: 0.3},
		Rounds:         500,
		Window:         100,
		Seed:           5,
		InitialWeights: weights,

		CheckInvariants: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 0 {
		t.Fatalf("drain scenario saw %d arrivals", res.Arrived)
	}
	if res.FinalInFlight > 5 {
		t.Fatalf("system did not drain: %d tasks left after %d rounds", res.FinalInFlight, res.Rounds)
	}
	if math.Abs(res.DepartedWeight-(1024-res.FinalWeight)) > 1e-6 {
		t.Fatalf("departed weight %v inconsistent with final %v", res.DepartedWeight, res.FinalWeight)
	}
}

// TestBurstAndTraceArrivals pins the deterministic arrival counts of
// the non-Poisson processes.
func TestBurstAndTraceArrivals(t *testing.T) {
	r := rng.NewSeeded(1)
	b := Burst{Every: 50, Size: 10, Weights: task.Uniform{W: 1}}
	total := 0
	for round := 0; round < 200; round++ {
		total += len(b.Next(round, r, nil))
	}
	if total != 40 {
		t.Fatalf("burst emitted %d tasks over 200 rounds, want 40", total)
	}
	tr := Trace{Rounds: [][]float64{{1, 2}, nil, {3}}}
	if got := tr.Next(0, r, nil); len(got) != 2 || got[1] != 2 {
		t.Fatalf("trace round 0 = %v", got)
	}
	if got := tr.Next(2, r, nil); len(got) != 1 || got[0] != 3 {
		t.Fatalf("trace round 2 = %v", got)
	}
	if tr.Next(1, r, nil) != nil || tr.Next(5, r, nil) != nil || tr.Next(-1, r, nil) != nil {
		t.Fatal("trace emitted tasks outside its rounds")
	}
	if (None{}).Next(0, r, nil) != nil {
		t.Fatal("None emitted arrivals")
	}
}

// TestTraceDrivenRun replays an explicit trace end to end and checks
// the exact arrival accounting.
func TestTraceDrivenRun(t *testing.T) {
	g := graph.Complete(10)
	rounds := make([][]float64, 30)
	rounds[0] = []float64{5, 5, 5}
	rounds[10] = []float64{1, 1, 1, 1}
	cfg := Config{
		Graph:    g,
		Protocol: core.UserControlled{Alpha: 1},
		Arrivals: Trace{Rounds: rounds, Label: "unit"},
		Service:  Geometric{P: 0.2},
		Tuner:    &OracleTuner{Eps: 0.5},
		Rounds:   120,
		Window:   30,
		Seed:     2,

		CheckInvariants: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 7 || res.ArrivedWeight != 19 {
		t.Fatalf("trace accounting: arrived=%d weight=%v", res.Arrived, res.ArrivedWeight)
	}
	if res.FinalInFlight != 0 {
		t.Fatalf("geometric drain left %d tasks after 120 rounds", res.FinalInFlight)
	}
}

// TestPowerOfDDispatch checks the two-choice dispatcher prefers the
// less-loaded sample.
func TestPowerOfDDispatch(t *testing.T) {
	g := graph.Complete(4)
	ts := task.NewSet([]float64{10, 10, 10})
	s := core.NewState(g, ts, []int{0, 1, 2}, core.FixedVector{V: make([]float64, 4)}, 1)
	up := NewUpSet(4)
	r := rng.NewSeeded(0)
	// Resource 3 is empty; with D = 4 samples the minimum is found
	// almost surely over repeated picks.
	hits := 0
	for i := 0; i < 50; i++ {
		if (PowerOfD{D: 4}).Pick(s, up, nil, -1, 1, r) == 3 {
			hits++
		}
	}
	if hits < 25 {
		t.Fatalf("power-of-4 picked the empty resource only %d/50 times", hits)
	}
	// Heterogeneous: resource 2 has load 10 but speed 100, so its
	// load-per-speed (0.1) undercuts the empty-but-slow resource 3 only
	// when 3 is sampled — both should dominate the loaded slow ones.
	speeds := []float64{1, 1, 100, 1}
	fast := 0
	for i := 0; i < 50; i++ {
		if c := (PowerOfD{D: 4}).Pick(s, up, speeds, -1, 1, r); c == 2 || c == 3 {
			fast++
		}
	}
	if fast < 25 {
		t.Fatalf("load-per-speed sampling ignored the fast/empty resources: %d/50", fast)
	}
}

// TestSpeedWeightedDispatch checks the speed-proportional router: a
// 10× machine should take ≈ 10/13 of the arrivals, and the
// homogeneous (nil-speeds) path must degrade to the uniform pick.
func TestSpeedWeightedDispatch(t *testing.T) {
	g := graph.Complete(4)
	ts := task.NewSet([]float64{1})
	s := core.NewState(g, ts, []int{0}, core.FixedVector{V: make([]float64, 4)}, 1)
	up := NewUpSet(4)
	r := rng.NewSeeded(7)
	speeds := []float64{1, 1, 1, 10}
	sw := &SpeedWeighted{}
	hits := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		if sw.Pick(s, up, speeds, -1, 1, r) == 3 {
			hits++
		}
	}
	want := float64(draws) * 10 / 13
	if math.Abs(float64(hits)-want) > 0.15*want {
		t.Fatalf("speed-weighted picked the 10x resource %d/%d times, want ≈ %.0f", hits, draws, want)
	}
	for i := 0; i < 100; i++ {
		if c := (&SpeedWeighted{}).Pick(s, up, nil, -1, 1, r); c < 0 || c > 3 {
			t.Fatalf("nil-speeds pick out of range: %d", c)
		}
	}
}

// TestUpSet exercises the churn bookkeeping.
func TestUpSet(t *testing.T) {
	u := NewUpSet(4)
	if u.N() != 4 || !u.Contains(2) {
		t.Fatal("fresh UpSet wrong")
	}
	u.Down(1)
	u.Down(3)
	if u.N() != 2 || u.Contains(1) || u.Contains(3) || !u.Contains(0) {
		t.Fatalf("after downs: n=%d", u.N())
	}
	u.Up(3)
	if u.N() != 3 || !u.Contains(3) {
		t.Fatal("rejoin failed")
	}
	r := rng.NewSeeded(1)
	for i := 0; i < 100; i++ {
		if pick := u.Random(r); pick == 1 {
			t.Fatal("sampled a down resource")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Down did not panic")
		}
	}()
	u.Down(1)
	u.Down(1)
}

// TestConfigValidation covers the error paths.
func TestConfigValidation(t *testing.T) {
	g := graph.Complete(4)
	good := func() Config {
		return Config{
			Graph:    g,
			Protocol: core.UserControlled{Alpha: 1},
			Arrivals: None{},
			Service:  Geometric{P: 0.5},
			Tuner:    &OracleTuner{Eps: 0.5},
			Rounds:   5,
		}
	}
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Graph = nil }, "Graph is required"},
		{func(c *Config) { c.Protocol = nil }, "Protocol is required"},
		{func(c *Config) { c.Arrivals = nil }, "Arrivals is required"},
		{func(c *Config) { c.Service = nil }, "Service is required"},
		{func(c *Config) { c.Tuner = nil }, "Tuner is required"},
		{func(c *Config) { c.Rounds = 0 }, "Rounds must be > 0"},
		{func(c *Config) { c.Churn.LeaveProb = 1.5 }, "churn probabilities"},
		{func(c *Config) { c.Churn.MinUp = 9 }, "MinUp exceeds"},
		{func(c *Config) {
			c.InitialWeights = []float64{1, 1}
			c.InitialPlacement = []int{0}
		}, "placement has"},
		{func(c *Config) {
			c.InitialWeights = []float64{1}
			c.InitialPlacement = []int{7}
		}, "invalid resource"},
		// Pluggable components reject bad parameters up front instead
		// of panicking mid-run.
		{func(c *Config) { c.Service = Geometric{P: 0} }, "Geometric.P"},
		{func(c *Config) { c.Service = Geometric{P: 1.5} }, "Geometric.P"},
		{func(c *Config) { c.Service = WeightProportional{Rate: 0} }, "WeightProportional.Rate"},
		{func(c *Config) { c.Arrivals = Poisson{Rate: -1, Weights: task.Uniform{W: 1}} }, "Poisson.Rate"},
		{func(c *Config) { c.Arrivals = Poisson{Rate: 1, Weights: task.Pareto{Alpha: 0}} }, "invalid weight distribution"},
		{func(c *Config) { c.Arrivals = Burst{Every: 5, Size: 2, Weights: task.UniformRange{Lo: 0.5, Hi: 2}} }, "invalid weight distribution"},
		{func(c *Config) { c.Arrivals = Trace{Rounds: [][]float64{{math.NaN()}}} }, "below 1"},
		{func(c *Config) { c.Arrivals = Burst{Every: 0, Size: 5, Weights: task.Uniform{W: 1}} }, "Burst.Every"},
		{func(c *Config) { c.Arrivals = Trace{Rounds: [][]float64{{0.5}}} }, "below 1"},
		{func(c *Config) { c.Dispatch = PowerOfD{D: 0} }, "PowerOfD.D"},
		// A policy that tracks the up set (recovery.Locality) hears of
		// transitions only in the re-home slot.
		{func(c *Config) { c.Dispatch = &recordingRehome{} }, "only the re-home slot"},
		{func(c *Config) { c.Speeds = []float64{1, 2} }, "Speeds has 2 entries"},
		{func(c *Config) { c.Speeds = []float64{1, 1, 0, 1} }, "must be positive"},
		{func(c *Config) { c.Speeds = []float64{1, 1, math.NaN(), 1} }, "must be positive"},
		{func(c *Config) { c.Speeds = []float64{1, 1, math.Inf(1), 1} }, "must be positive"},
		{func(c *Config) { c.Tuner = &SelfTuner{Eps: 0.5} }, "Kernel is required"},
		{func(c *Config) { c.Tuner = &OracleTuner{Eps: 0} }, "OracleTuner.Eps"},
		// Non-finite parameters fail up front too, instead of running
		// with no arrivals or failing mid-run on a NaN weight.
		{func(c *Config) { c.Arrivals = Poisson{Rate: math.NaN(), Weights: task.Uniform{W: 1}} }, "Poisson.Rate"},
		{func(c *Config) { c.Arrivals = Poisson{Rate: math.Inf(1), Weights: task.Uniform{W: 1}} }, "Poisson.Rate"},
		{func(c *Config) { c.Arrivals = Poisson{Rate: 1e30, Weights: task.Uniform{W: 1}} }, "Poisson.Rate"},
		{func(c *Config) { c.Arrivals = Poisson{Rate: 1, Weights: task.Pareto{Alpha: math.NaN(), Cap: 20}} }, "invalid weight distribution"},
		{func(c *Config) { c.Arrivals = Poisson{Rate: 1, Weights: task.Exponential{Mean: math.NaN()}} }, "invalid weight distribution"},
		{func(c *Config) { c.Arrivals = Poisson{Rate: 1, Weights: task.UniformRange{Lo: 1, Hi: math.NaN()}} }, "invalid weight distribution"},
		{func(c *Config) { c.Arrivals = Poisson{Rate: 1, Weights: task.UniformRange{Lo: math.NaN(), Hi: 2}} }, "invalid weight distribution"},
		// A NaN service rate or probability would serve nothing, and a
		// NaN slack or decay would never migrate.
		{func(c *Config) { c.Service = WeightProportional{Rate: math.NaN()} }, "WeightProportional.Rate"},
		{func(c *Config) { c.Service = Geometric{P: math.NaN()} }, "Geometric.P"},
		{func(c *Config) { c.Tuner = &OracleTuner{Eps: math.NaN()} }, "OracleTuner.Eps"},
		{func(c *Config) {
			c.Tuner = &SelfTuner{Eps: math.NaN(), Kernel: walk.NewLazy(walk.NewMaxDegree(g))}
		}, "SelfTuner.Eps"},
		{func(c *Config) {
			c.Tuner = &SelfTuner{Eps: 0.5, Decay: math.NaN(), Kernel: walk.NewLazy(walk.NewMaxDegree(g))}
		}, "SelfTuner.Decay"},
	}
	for _, cse := range cases {
		cfg := good()
		cse.mutate(&cfg)
		_, errRun := Run(cfg)
		_, errNew := NewEngine(cfg)
		_, errResume := Resume(strings.NewReader(""), cfg)
		for _, err := range []error{errRun, errNew, errResume} {
			if err == nil || !strings.Contains(err.Error(), cse.want) {
				t.Fatalf("want error containing %q, got %v", cse.want, err)
			}
		}
	}
	// The live policy switch refuses such a policy too.
	en, err := NewEngine(good())
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	if err := en.SetDispatch(&recordingRehome{}); err == nil || !strings.Contains(err.Error(), "can only re-home") {
		t.Fatalf("SetDispatch of an up-set observer: %v", err)
	}

	// A protocol that can never migrate (a coin that never comes up) or
	// that would panic mid-run is a config error from every entry point.
	protos := []struct {
		p    core.Protocol
		want string
	}{
		{core.UserControlled{Alpha: 0}, "UserControlled requires Alpha > 0"},
		{core.UserControlled{Alpha: -1}, "UserControlled requires Alpha > 0"},
		{core.UserControlledGraph{}, "UserControlledGraph requires Alpha > 0"},
		{core.UserControlled{Alpha: math.NaN()}, "UserControlled requires Alpha > 0"},
		{core.UserControlledGraph{Alpha: math.NaN()}, "UserControlledGraph requires Alpha > 0"},
		{core.Mixed{A: core.UserControlled{Alpha: 1}, B: core.UserControlledGraph{Alpha: math.NaN()}, Period: 2}, "UserControlledGraph requires Alpha > 0"},
		{core.Mixed{A: core.UserControlled{Alpha: 1}, B: core.UserControlled{Alpha: 1}}, "Mixed requires Period >= 1"},
	}
	for _, pc := range protos {
		cfg := good()
		cfg.Protocol = pc.p
		_, errRun := Run(cfg)
		_, errNew := NewEngine(cfg)
		_, errResume := Resume(strings.NewReader(""), cfg)
		for _, err := range []error{errRun, errNew, errResume} {
			if err == nil || !strings.Contains(err.Error(), pc.want) {
				t.Fatalf("%#v: want error containing %q, got %v", pc.p, pc.want, err)
			}
		}
	}
}

// TestServiceDisciplines pins the two departure models against a hand
// stack.
func TestServiceDisciplines(t *testing.T) {
	ts := task.NewSet([]float64{2, 3, 4})
	g := graph.Complete(2)
	s := core.NewState(g, ts, []int{0, 0, 0}, core.FixedVector{V: []float64{100, 100}}, 1)
	rem := []float64{2, 3, 4}
	r := rng.NewSeeded(1)
	// Rate 4 finishes the weight-2 bottom task and eats 2 of the next.
	got := WeightProportional{Rate: 4}.Departures(s.Stack(0), rem, 1, r, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("departures %v, want [0]", got)
	}
	if rem[0] != 0 || rem[1] != 1 || rem[2] != 4 {
		t.Fatalf("remaining %v", rem)
	}
	// Next round at rate 4: finishes task 1 (1 left) and task 2 (3
	// left after consuming the remaining budget)? Budget 4: task 0
	// already gone in a real run, but the model only looks at rem —
	// remove it first like the engine would.
	s.RemoveTaskAt(0, 0)
	got = WeightProportional{Rate: 4}.Departures(s.Stack(0), rem, 1, r, got[:0])
	if len(got) != 1 || got[0] != 0 || rem[2] != 1 {
		t.Fatalf("second round: departures %v rem %v", got, rem)
	}
	// Geometric with P = 1 departs everything.
	got = Geometric{P: 1}.Departures(s.Stack(0), rem, 1, r, got[:0])
	if len(got) != s.Stack(0).Len() {
		t.Fatalf("geometric(1) kept tasks: %v", got)
	}
}

// TestServiceSpeedScaling pins the heterogeneous service arithmetic: a
// speed-s resource serves Rate·s weight-units per round, and the
// geometric discipline departs with probability 1 − (1−P)^s.
func TestServiceSpeedScaling(t *testing.T) {
	ts := task.NewSet([]float64{2, 3, 4})
	g := graph.Complete(2)
	s := core.NewState(g, ts, []int{0, 0, 0}, core.FixedVector{V: []float64{100, 100}}, 1)
	rem := []float64{2, 3, 4}
	r := rng.NewSeeded(1)
	// Speed 2 at rate 2 gives budget 4: task 0 departs, task 1 keeps 1.
	got := WeightProportional{Rate: 2}.Departures(s.Stack(0), rem, 2, r, nil)
	if len(got) != 1 || got[0] != 0 || rem[1] != 1 {
		t.Fatalf("speed-2 departures %v rem %v", got, rem)
	}
	// Speed 3 finishes everything left (1 + 4 ≤ 2·3).
	s.RemoveTaskAt(0, 0)
	got = WeightProportional{Rate: 2}.Departures(s.Stack(0), rem, 3, r, got[:0])
	if len(got) != 2 {
		t.Fatalf("speed-3 departures %v rem %v", got, rem)
	}
	// powCompl: exact on integer exponents, math.Pow otherwise.
	if v := powCompl(0.5, 2); v != 0.25 {
		t.Fatalf("powCompl(0.5,2) = %v", v)
	}
	if v := powCompl(0.9, 10); math.Abs(v-math.Pow(0.9, 10)) > 1e-15 {
		t.Fatalf("powCompl(0.9,10) = %v, want %v", v, math.Pow(0.9, 10))
	}
	if v := powCompl(0.5, 2.5); v != math.Pow(0.5, 2.5) {
		t.Fatalf("powCompl(0.5,2.5) = %v", v)
	}
	// Geometric: P = 0.5 at speed 2 → departure probability 0.75.
	const trials = 4000
	ts2 := task.NewSet([]float64{1})
	s2 := core.NewState(g, ts2, []int{0}, core.FixedVector{V: []float64{100, 100}}, 1)
	hits := 0
	for i := 0; i < trials; i++ {
		if len(Geometric{P: 0.5}.Departures(s2.Stack(0), rem, 2, r, nil)) == 1 {
			hits++
		}
	}
	if math.Abs(float64(hits)/trials-0.75) > 0.03 {
		t.Fatalf("geometric speed-2 departure rate %v, want ≈ 0.75", float64(hits)/trials)
	}
}
