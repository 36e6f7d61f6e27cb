package recovery

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// paretoMean is E[min(Pareto(1,2), 20)] = 2 − 1/20, the mean arrival
// weight of the shared workloads.
const paretoMean = 1.95

// testSpeeds builds the 10:1 interleaved speed profile used across the
// recovery suite, so every rack mixes all four speed classes.
func testSpeeds(n int) ([]float64, float64) {
	speeds := make([]float64, n)
	total := 0.0
	for r := range speeds {
		speeds[r] = []float64{1, 2, 4, 10}[r%4]
		total += speeds[r]
	}
	return speeds, total
}

// recoverConfig is the shared rack-loss workload: a cluster graph
// mirroring the topology, heterogeneous speeds, ρ = 0.8 Poisson
// traffic, self-tuned thresholds, and the given scripted events and
// re-home policy.
func recoverConfig(topo *Topology, events []dynamic.ChurnEvent, seed uint64, workers int, rehome dynamic.Dispatch) dynamic.Config {
	n := topo.N()
	g := topo.ClusterGraph(6, 2, 1234)
	speeds, totalSpeed := testSpeeds(n)
	return dynamic.Config{
		Graph:    g,
		Speeds:   speeds,
		Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals: dynamic.Poisson{Rate: 0.8 * totalSpeed / paretoMean,
			Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  dynamic.WeightProportional{Rate: 1},
		Dispatch: dynamic.PowerOfD{D: 2},
		Rehome:   rehome,
		Tuner: &dynamic.SelfTuner{Eps: 0.5, Decay: 0.8, Every: 10, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Churn:   dynamic.Churn{MinUp: n / 4, Events: events},
		Rounds:  200,
		Window:  50,
		Seed:    seed,
		Workers: workers,
	}
}

// rehomePolicies enumerates every policy under test with a fresh-value
// constructor (stateful policies must not be shared across runs).
func rehomePolicies(topo *Topology) []struct {
	name string
	mk   func() dynamic.Dispatch
} {
	return []struct {
		name string
		mk   func() dynamic.Dispatch
	}{
		{"uniform", func() dynamic.Dispatch { return dynamic.UniformDispatch{} }},
		{"power2", func() dynamic.Dispatch { return dynamic.PowerOfD{D: 2} }},
		{"locality", func() dynamic.Dispatch { return &Locality{Topo: topo} }},
		{"speed", func() dynamic.Dispatch { return &dynamic.SpeedWeighted{} }},
	}
}

// TestPolicyGoldenDeterminism is the golden cross-worker test extended
// to every re-home policy: a whole rack dies at round 60 and rejoins
// at 150; for seeds {1, 2, 3} and workers {1, 2, 4, 8} each policy's
// Result — recovery episodes and float totals included — must be
// byte-identical to its sequential run.
func TestPolicyGoldenDeterminism(t *testing.T) {
	topo, err := Synth(400, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rack0 := topo.RackList(0, nil)
	events := []dynamic.ChurnEvent{
		{Round: 60, DownList: rack0},
		{Round: 150, UpList: rack0},
	}
	for _, pol := range rehomePolicies(topo) {
		for _, seed := range []uint64{1, 2, 3} {
			var ref dynamic.Result
			for _, workers := range []int{1, 2, 4, 8} {
				cfg := recoverConfig(topo, events, seed, workers, pol.mk())
				cfg.CheckInvariants = workers == 1
				res, err := dynamic.Run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", pol.name, seed, workers, err)
				}
				if workers == 1 {
					ref = res
					if res.Downs != len(rack0) || res.Ups != len(rack0) {
						t.Fatalf("%s seed %d: rack loss did not fire: downs=%d ups=%d",
							pol.name, seed, res.Downs, res.Ups)
					}
					if res.Rehomed == 0 || res.RehomedWeight <= 0 {
						t.Fatalf("%s seed %d: nothing evacuated", pol.name, seed)
					}
					if len(res.Recoveries) == 0 {
						t.Fatalf("%s seed %d: no recovery episode", pol.name, seed)
					}
					continue
				}
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("%s seed %d: workers=%d diverges from sequential run\ngot  %+v\nwant %+v",
						pol.name, seed, workers, res, ref)
				}
			}
		}
	}
}

// TestLocalityKeepsEvacuationLocal pins the policy's semantics at the
// engine level: when a whole rack dies, Locality re-homes its load
// inside the same ZONE (tier 2), while uniform scatters it fleet-wide.
// Both runs share every draw up to the evacuation itself, so the
// zone-0 weight snapshot at the failure round isolates the policy.
func TestLocalityKeepsEvacuationLocal(t *testing.T) {
	topo, err := Synth(200, 4, 2) // zone 0 = racks {0, 1}, zone 1 = racks {2, 3}
	if err != nil {
		t.Fatal(err)
	}
	events := []dynamic.ChurnEvent{{Round: 100, DownList: topo.RackList(0, nil)}}
	zone0At100 := func(rehome dynamic.Dispatch) (float64, float64) {
		cfg := recoverConfig(topo, events, 5, 2, rehome)
		weight := 0.0
		cfg.OnRound = func(round int, s *core.State) {
			if round != 100 {
				return
			}
			for r := 0; r < s.N(); r++ {
				if topo.ZoneOf(r) == 0 {
					weight += s.Load(r)
				}
			}
		}
		res, err := dynamic.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Recoveries) != 1 {
			t.Fatalf("want one episode, got %+v", res.Recoveries)
		}
		return weight, res.Recoveries[0].EvacWeight
	}
	local, evacW := zone0At100(&Locality{Topo: topo})
	if evacW <= 0 {
		t.Fatal("the dead rack held no weight — workload too thin for the test")
	}
	uniform, _ := zone0At100(dynamic.UniformDispatch{})
	if local <= uniform {
		t.Fatalf("locality kept %v weight in the victim's zone, uniform kept %v — locality is not keeping work local",
			local, uniform)
	}
}

// TestPolicyPropertyNoDownTargets drives randomized churn-heavy
// configurations through every policy with invariant checking on. The
// engine enforces the two safety properties each round — a policy pick
// must be an up resource (panic otherwise) and no down resource may
// hold a task at a round boundary (CheckInvariants error) — so an
// error-free run IS the property.
func TestPolicyPropertyNoDownTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised engine runs take a few seconds")
	}
	r := rng.NewSeeded(0xD15A57E5)
	for trial := 0; trial < 6; trial++ {
		racks := 2 + r.Intn(6)
		n := racks * (8 + r.Intn(10))
		zones := 1 + r.Intn(racks)
		topo, err := Synth(n, racks, zones)
		if err != nil {
			t.Fatal(err)
		}
		// A repeating rack massacre plus heavy stochastic churn.
		rack := r.Intn(racks)
		events := []dynamic.ChurnEvent{
			{Round: 10 + r.Intn(10), Every: 40, DownList: topo.RackList(rack, nil)},
			{Round: 30 + r.Intn(10), Every: 40, UpList: topo.RackList(rack, nil)},
		}
		for _, pol := range rehomePolicies(topo) {
			cfg := recoverConfig(topo, events, r.Uint64(), 1+r.Intn(4), pol.mk())
			cfg.Churn.LeaveProb = 0.4 * r.Float64()
			cfg.Churn.JoinProb = 0.4 * r.Float64()
			cfg.Rounds = 120
			cfg.CheckInvariants = true
			res, err := dynamic.Run(cfg)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, pol.name, err)
			}
			if res.Downs == 0 || res.Rehomed == 0 {
				t.Fatalf("trial %d %s: churn never exercised evacuation", trial, pol.name)
			}
		}
	}
}

// TestTopologyAwareSteadyStateZeroAllocs extends the engine's headline
// allocation budget to the topology-aware recovery path: a fleet under
// periodic whole-rack losses with the Locality policy (per-domain list
// maintenance, observer callbacks, episode tracking) must still run
// steady-state rounds without allocating, sequentially and sharded.
func TestTopologyAwareSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrating benchmark runs take ~1s each")
	}
	if raceEnabled {
		t.Skip("race instrumentation shrinks the calibrated iteration count, so one-time construction no longer amortises below 1 alloc/op")
	}
	topo, err := Synth(256, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rack0 := topo.RackList(0, nil)
	events := []dynamic.ChurnEvent{
		{Round: 10, Every: 40, DownList: rack0},
		{Round: 30, Every: 40, UpList: rack0},
	}
	for _, workers := range []int{1, 2} {
		res := testing.Benchmark(func(b *testing.B) {
			cfg := recoverConfig(topo, events, 0x5eed, workers, &Locality{Topo: topo})
			cfg.Rounds = b.N
			cfg.Window = 1 << 30
			b.ReportAllocs()
			if _, err := dynamic.Run(cfg); err != nil {
				b.Fatal(err)
			}
		})
		if allocs := res.AllocsPerOp(); allocs != 0 {
			t.Fatalf("workers=%d: topology-aware steady state allocates %d times/op (%d B/op), want 0",
				workers, allocs, res.AllocedBytesPerOp())
		}
	}
}
