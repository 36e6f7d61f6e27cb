package dynamic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// goldenConfig is the determinism workload: Poisson/Pareto traffic,
// self-tuned thresholds, and (optionally) heavy resource churn so the
// cross-shard paths — evacuations, bounced deliveries, the up-mass
// renormalisation — are all exercised.
func goldenConfig(n int, proto core.Protocol, g *graph.Graph, churn Churn, seed uint64, workers int) Config {
	return Config{
		Graph:    g,
		Protocol: proto,
		Arrivals: Poisson{Rate: 0.8 * float64(n) / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  WeightProportional{Rate: 1},
		Tuner: &SelfTuner{Eps: 0.5, Decay: 0.8, Every: 10, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Churn:   churn,
		Rounds:  250,
		Window:  50,
		Seed:    seed,
		Workers: workers,
	}
}

// TestShardedDeterminism is the golden cross-worker-count test: for
// seeds {1, 2, 3} and workers {1, 2, 4, 8}, the sharded engine must
// produce byte-identical Result values — WindowStats and float totals
// included — matching the sequential Workers = 1 run, with and without
// churn, for both protocol families and for geometric service (whose
// randomness rides the per-resource streams).
func TestShardedDeterminism(t *testing.T) {
	expander := graph.RandomRegular(200, 8, rng.NewSeeded(7))
	complete := graph.Complete(120)
	cases := []struct {
		name  string
		build func(seed uint64, workers int) Config
	}{
		{"resource-churnless", func(seed uint64, workers int) Config {
			return goldenConfig(200, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(expander))},
				expander, Churn{}, seed, workers)
		}},
		{"resource-churn", func(seed uint64, workers int) Config {
			return goldenConfig(200, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(expander))},
				expander, Churn{LeaveProb: 0.3, JoinProb: 0.3, MinUp: 100}, seed, workers)
		}},
		{"user-churn", func(seed uint64, workers int) Config {
			return goldenConfig(120, core.UserControlled{Alpha: 1},
				complete, Churn{LeaveProb: 0.2, JoinProb: 0.2, MinUp: 60}, seed, workers)
		}},
		{"mixed-geometric-churn", func(seed uint64, workers int) Config {
			cfg := goldenConfig(200, core.Mixed{
				A:      core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(expander))},
				B:      core.UserControlledGraph{Alpha: 1},
				Period: 2,
			}, expander, Churn{LeaveProb: 0.2, JoinProb: 0.2, MinUp: 100}, seed, workers)
			cfg.Service = Geometric{P: 0.2}
			return cfg
		}},
	}
	for _, tc := range cases {
		for _, seed := range []uint64{1, 2, 3} {
			var ref Result
			for _, workers := range []int{1, 2, 4, 8} {
				cfg := tc.build(seed, workers)
				cfg.CheckInvariants = workers == 1 // once per seed is plenty
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", tc.name, seed, workers, err)
				}
				if workers == 1 {
					ref = res
					if res.Arrived == 0 || res.Departed == 0 {
						t.Fatalf("%s seed %d: no traffic: %+v", tc.name, seed, res)
					}
					continue
				}
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("%s seed %d: workers=%d diverges from sequential run\ngot  %+v\nwant %+v",
						tc.name, seed, workers, res, ref)
				}
			}
		}
	}
}

// TestWorkersExceedingResources pins the clamp: more workers than
// resources must neither crash nor change the outcome.
func TestWorkersExceedingResources(t *testing.T) {
	g := graph.Complete(5)
	build := func(workers int) Config {
		return Config{
			Graph:    g,
			Protocol: core.UserControlled{Alpha: 1},
			Arrivals: Poisson{Rate: 2, Weights: task.Uniform{W: 1}},
			Service:  Geometric{P: 0.3},
			Tuner:    &OracleTuner{Eps: 0.5},
			Rounds:   80,
			Window:   20,
			Seed:     11,
			Workers:  workers,
		}
	}
	ref, err := Run(build(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(build(64))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("worker clamp changed the run:\ngot  %+v\nwant %+v", got, ref)
	}
}

// TestSteadyStateZeroAllocs asserts the headline allocation budget:
// once warmed up, the churnless Poisson configuration must run whole
// rounds — arrivals, dispatch, service, tuner refresh, propose,
// deliver, metrics — without allocating, for both the sequential and
// the sharded engine. testing.Benchmark amortises the one-time engine
// construction and the logarithmically-rare buffer growth; anything
// per-round would show up as ≥ 1 alloc/op.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrating benchmark runs take ~1s each")
	}
	if raceEnabled {
		t.Skip("race instrumentation shrinks the calibrated iteration count, so one-time construction no longer amortises below 1 alloc/op")
	}
	g := graph.RandomRegular(256, 8, rng.NewSeeded(3))
	// The heterogeneous variant exercises every speed path — scaled
	// service, the speed-mass tuner companion, speed-weighted dispatch
	// — under the same zero-allocation budget.
	speeds := speedProfile(256)
	totalSpeed := 0.0
	for _, s := range speeds {
		totalSpeed += s
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"homogeneous", func(cfg *Config) {}},
		{"heterogeneous", func(cfg *Config) {
			cfg.Speeds = speeds
			cfg.Arrivals = Poisson{Rate: 0.8 * totalSpeed / paretoMean,
				Weights: task.Pareto{Alpha: 2, Cap: 20}}
			cfg.Dispatch = &SpeedWeighted{}
		}},
		// The observed variant attaches the full telemetry stack — a
		// broker with a registered Prometheus exporter, whose bounded
		// subscription absorbs (and, unscraped, eventually drops) the
		// window/lane/phase event stream — under the same exact-zero
		// budget: publishing is a struct copy into a preallocated ring.
		{"observed", func(cfg *Config) {
			br := obs.NewBroker()
			obs.NewExporter(br, 1024)
			cfg.Obs = br
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			res := testing.Benchmark(func(b *testing.B) {
				cfg := Config{
					Graph:    g,
					Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
					Arrivals: Poisson{Rate: 0.8 * 256 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
					Service:  WeightProportional{Rate: 1},
					Tuner: &SelfTuner{Eps: 0.5, Steps: 2,
						Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
					Rounds:  b.N,
					Window:  1 << 30,
					Seed:    0x5eed,
					Workers: workers,
				}
				tc.mutate(&cfg)
				b.ReportAllocs()
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			})
			if allocs := res.AllocsPerOp(); allocs != 0 {
				t.Fatalf("%s workers=%d: steady-state round allocates %d times/op (%d B/op), want 0",
					tc.name, workers, allocs, res.AllocedBytesPerOp())
			}
		}
	}
}

// TestMassFailureDeterminism is the mass-churn golden test: a scripted
// ChurnEvent kills 1000 of 2000 resources in a single round (and later
// rejoins them), so thousands of tasks evacuate through the parallel
// exchange at once. For seeds {1, 2, 3} and workers {1, 2, 4, 8} the
// Result must be byte-identical — the sharded evacuation path, like
// every other phase, may not leak the partition into the outcome.
func TestMassFailureDeterminism(t *testing.T) {
	g := graph.RandomRegular(2000, 8, rng.NewSeeded(21))
	build := func(seed uint64, workers int) Config {
		cfg := goldenConfig(2000, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			g, Churn{
				MinUp: 500,
				Events: []ChurnEvent{
					{Round: 60, Down: 1000},
					{Round: 150, Up: 1000},
				},
			}, seed, workers)
		cfg.Arrivals = Poisson{Rate: 0.8 * 2000 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}}
		return cfg
	}
	for _, seed := range []uint64{1, 2, 3} {
		var ref Result
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := build(seed, workers)
			cfg.CheckInvariants = workers == 1
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if workers == 1 {
				ref = res
				if res.Downs != 1000 || res.Ups != 1000 {
					t.Fatalf("seed %d: mass events did not fire: downs=%d ups=%d", seed, res.Downs, res.Ups)
				}
				if res.Rehomed < 1000 {
					t.Fatalf("seed %d: mass failure re-homed only %d tasks", seed, res.Rehomed)
				}
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("seed %d: workers=%d diverges from sequential mass-failure run\ngot  %+v\nwant %+v",
					seed, workers, res, ref)
			}
		}
	}
}

// speedProfile builds the heterogeneous test fleet: four speed classes
// {1, 2, 4, 10} interleaved across the resource range — a 10:1 spread
// with every shard holding a mix of classes.
func speedProfile(n int) []float64 {
	speeds := make([]float64, n)
	for r := range speeds {
		speeds[r] = []float64{1, 2, 4, 10}[r%4]
	}
	return speeds
}

// TestHeterogeneousMassFailureDeterminism is the heterogeneous golden
// test: a 10:1 speed-spread fleet under speed-scaled service,
// speed-aware self-tuned thresholds and load-per-speed power-of-two
// dispatch, hit by a mass failure (half the fleet dies in one round,
// rejoins later). For seeds {1, 2, 3} and workers {1, 2, 4, 8} the
// Result must be byte-identical — the speed plumbing, like every other
// engine feature, may not leak the partition into the outcome.
func TestHeterogeneousMassFailureDeterminism(t *testing.T) {
	const n = 800
	g := graph.RandomRegular(n, 8, rng.NewSeeded(31))
	speeds := speedProfile(n)
	totalSpeed := 0.0
	for _, s := range speeds {
		totalSpeed += s
	}
	build := func(seed uint64, workers int) Config {
		return Config{
			Graph:  g,
			Speeds: speeds,
			Protocol: core.ResourceControlled{
				Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			Arrivals: Poisson{Rate: 0.8 * totalSpeed / paretoMean,
				Weights: task.Pareto{Alpha: 2, Cap: 20}},
			Service:  WeightProportional{Rate: 1},
			Dispatch: PowerOfD{D: 2},
			Tuner: &SelfTuner{Eps: 0.5, Decay: 0.8, Every: 10, Steps: 2,
				Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			Churn: Churn{
				MinUp: 200,
				Events: []ChurnEvent{
					{Round: 60, Down: 400},
					{Round: 150, Up: 400},
				},
			},
			Rounds:  250,
			Window:  50,
			Seed:    seed,
			Workers: workers,
		}
	}
	for _, seed := range []uint64{1, 2, 3} {
		var ref Result
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := build(seed, workers)
			cfg.CheckInvariants = workers == 1
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if workers == 1 {
				ref = res
				if res.Downs != 400 || res.Ups != 400 {
					t.Fatalf("seed %d: mass events did not fire: downs=%d ups=%d", seed, res.Downs, res.Ups)
				}
				if res.Rehomed < 400 {
					t.Fatalf("seed %d: mass failure re-homed only %d tasks", seed, res.Rehomed)
				}
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Fatalf("seed %d: workers=%d diverges from sequential heterogeneous run\ngot  %+v\nwant %+v",
					seed, workers, res, ref)
			}
		}
	}
}

// TestHeterogeneousSteadyState drives the speed-aware engine end to
// end and checks the physics. The fleet is 10:1 heterogeneous and the
// Poisson stream runs at ρ = 0.8 of its TOTAL capacity but is
// dispatched UNIFORMLY — every slow machine is offered ~4.25× what it
// can serve, so the system is stable only if migration keeps shedding
// the slow machines' excess to the fast ones. With speed-proportional
// thresholds the run must reach a steady state whose live thresholds
// track the analytic (1+ε)·(W/S)·s_r + wmax targets; with no
// balancing at all the same stream must visibly diverge — the control
// that proves the speed-aware balancer, not the dispatcher, carries
// the workload class.
func TestHeterogeneousSteadyState(t *testing.T) {
	const n, eps = 400, 0.5
	g := graph.Complete(n)
	speeds := speedProfile(n)
	totalSpeed := 0.0
	for _, s := range speeds {
		totalSpeed += s
	}
	var lastState *core.State
	// Light-tailed weights (mean 1.5, wmax 2) keep the +wmax threshold
	// floor small, so the standing queue level is governed by the
	// proportional W·s_r/S shares the test is about, not by the slack.
	// Tuners are stateful — each run gets a fresh one.
	base := func() Config {
		return Config{
			Graph:  g,
			Speeds: speeds,
			Arrivals: Poisson{Rate: 0.8 * totalSpeed / 1.5,
				Weights: task.UniformRange{Lo: 1, Hi: 2}},
			Service: WeightProportional{Rate: 1},
			Tuner: &SelfTuner{Eps: eps, Decay: 0.8, Every: 10, Steps: 4,
				Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			Rounds:          600,
			Window:          100,
			Seed:            17,
			Workers:         2,
			CheckInvariants: true,
		}
	}
	balanced := base()
	balanced.Protocol = core.UserControlled{Alpha: 1}
	balanced.OnRound = func(round int, s *core.State) {
		if round == 599 {
			lastState = s
		}
	}
	res, err := Run(balanced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("heterogeneous run produced no migrations")
	}
	if lastState == nil {
		t.Fatal("OnRound never saw the final round")
	}
	// Stability: the in-flight weight stays a small multiple of the
	// fleet's per-round capacity instead of accumulating the slow
	// machines' structural deficit.
	last := res.Windows[len(res.Windows)-1]
	if last.InFlightWeight > 5*totalSpeed {
		t.Fatalf("in-flight weight %v not draining (capacity %v/round)", last.InFlightWeight, totalSpeed)
	}
	// Live thresholds vs the analytic proportional targets, using the
	// final in-flight weight. W fluctuates round to round while the
	// EWMA averages it, so the live band is wider than the static
	// 5% regression in TestSelfTunerProportionalTargets.
	w, wmax := res.FinalWeight, lastState.LiveWMax()
	for _, r := range []int{0, 1, 2, 3, n - 4, n - 3, n - 2, n - 1} {
		want := (1+eps)*(w/totalSpeed)*speeds[r] + wmax
		if got := lastState.Threshold(r); math.Abs(got-want) > 0.25*want {
			t.Fatalf("resource %d (speed %g): live threshold %v, want ≈ %v (±25%%)",
				r, speeds[r], got, want)
		}
	}
	// The control: no balancing. The 1× and 2× classes are each offered
	// 0.8·S/n = 3.4 weight-units per round against capacities 1 and 2,
	// so without migration their structural deficit (~380 weight/round
	// fleet-wide) accumulates and the unbalanced in-flight weight must
	// dwarf the balanced one.
	unbalanced := base()
	unbalanced.Protocol = nullProtocol{}
	resNull, err := Run(unbalanced)
	if err != nil {
		t.Fatal(err)
	}
	lastNull := resNull.Windows[len(resNull.Windows)-1]
	if lastNull.InFlightWeight < 10*last.InFlightWeight {
		t.Fatalf("no-balancing control did not diverge: %v vs balanced %v",
			lastNull.InFlightWeight, last.InFlightWeight)
	}
}

// TestChurnEventsRespectMinUp pins the event guard rails: a Down burst
// larger than the headroom stops at MinUp, repeating events fire on
// their period, and weight is conserved throughout (CheckInvariants).
func TestChurnEventsRespectMinUp(t *testing.T) {
	g := graph.Complete(100)
	cfg := Config{
		Graph:    g,
		Protocol: core.UserControlled{Alpha: 1},
		Arrivals: Poisson{Rate: 0.7 * 100 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  WeightProportional{Rate: 1},
		Tuner:    &OracleTuner{Eps: 0.5},
		Churn: Churn{
			MinUp: 80,
			Events: []ChurnEvent{
				{Round: 10, Every: 40, Down: 1000}, // wants far more than the headroom
				{Round: 30, Every: 40, Up: 1000},   // rejoins everything that is down
			},
		},
		Rounds:          120,
		Window:          30,
		Seed:            4,
		Workers:         4,
		CheckInvariants: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each Down burst can only take up to MinUp: 3 bursts × 20.
	if res.Downs != 60 || res.Ups != 60 {
		t.Fatalf("event bursts wrong: downs=%d ups=%d (want 60 each)", res.Downs, res.Ups)
	}
	if res.Rehomed == 0 {
		t.Fatal("mass failures re-homed nothing")
	}
}

// TestMeasuredCostRebalance drives the measured-cost shard sizing with
// a deliberately skewed workload (hotspot ingress) and checks the
// observability contract: every 64-round rebalance period publishes one
// KindShardCost event per shard, together a valid, cost-annotated
// partition — and the run still matches the one-worker run bit for
// bit, because boundary placement can never leak into results.
func TestMeasuredCostRebalance(t *testing.T) {
	g := graph.Complete(200)
	build := func(workers int) Config {
		return Config{
			Graph:    g,
			Protocol: core.UserControlled{Alpha: 1},
			Arrivals: Poisson{Rate: 0.8 * 200 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
			Service:  WeightProportional{Rate: 1},
			Dispatch: HotspotDispatch{Resource: 7},
			Tuner:    &OracleTuner{Eps: 0.5},
			Rounds:   512,
			Window:   50,
			Seed:     12,
			Workers:  workers,
		}
	}
	ref, err := Run(build(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := build(4)
	broker := obs.NewBroker()
	cfg.Obs = broker
	sub := broker.Subscribe(obs.SubOptions{Kinds: obs.Mask(obs.KindShardCost), Capacity: 1 << 10})
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	broker.Close()
	byRound := map[int][]obs.ShardCost{}
	var rounds []int
	for _, ev := range drainAll(sub) {
		if _, ok := byRound[ev.Round]; !ok {
			rounds = append(rounds, ev.Round)
		}
		byRound[ev.Round] = append(byRound[ev.Round], ev.ShardCost)
	}
	if len(rounds) != 8 {
		t.Fatalf("shard costs reported at rounds %v over 512 rounds at period 64", rounds)
	}
	for _, round := range rounds {
		sts := byRound[round]
		if round%64 != 0 {
			t.Fatalf("rebalance at round %d with period 64", round)
		}
		if len(sts) != 4 {
			t.Fatalf("rebalance saw %d shards", len(sts))
		}
		prev := 0
		for i, st := range sts {
			if st.Shard != i || st.Lo != prev || st.Hi <= st.Lo {
				t.Fatalf("invalid shard partition %+v", sts)
			}
			prev = st.Hi
		}
		if prev != 200 {
			t.Fatalf("partition does not cover the range: %+v", sts)
		}
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("measured-cost boundaries changed the run:\ngot  %+v\nwant %+v", got, ref)
	}
}
