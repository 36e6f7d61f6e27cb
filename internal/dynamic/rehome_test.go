package dynamic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/task"
)

// listEventConfig is the scripted-list workload: a named block of
// resources dies at round 40 and rejoins at 80, under steady traffic.
func listEventConfig(n int, seed uint64, workers int, rehome Dispatch) Config {
	g := graph.Complete(n)
	downList := make([]int, n/4)
	for i := range downList {
		downList[i] = i // the "rack": resources 0..n/4-1
	}
	return Config{
		Graph:    g,
		Protocol: core.UserControlled{Alpha: 1},
		Arrivals: Poisson{Rate: 0.8 * float64(n) / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  WeightProportional{Rate: 1},
		Rehome:   rehome,
		Tuner:    &OracleTuner{Eps: 0.5},
		Churn: Churn{
			Events: []ChurnEvent{
				{Round: 40, DownList: downList},
				{Round: 80, UpList: downList},
			},
		},
		Rounds:          120,
		Window:          30,
		Seed:            seed,
		Workers:         workers,
		CheckInvariants: true,
	}
}

// TestChurnEventLists pins the scripted-list semantics: exactly the
// listed resources go down (and later rejoin), their tasks are
// re-homed, and the run stays worker-count invariant.
func TestChurnEventLists(t *testing.T) {
	var ref Result
	for _, workers := range []int{1, 4} {
		res, err := Run(listEventConfig(80, 3, workers, nil))
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref = res
			if res.Downs != 20 || res.Ups != 20 {
				t.Fatalf("listed events: downs=%d ups=%d, want 20 each", res.Downs, res.Ups)
			}
			if res.Rehomed == 0 {
				t.Fatal("listed mass failure re-homed nothing")
			}
			if res.RehomedWeight <= 0 {
				t.Fatalf("re-homed %d tasks but RehomedWeight = %v", res.Rehomed, res.RehomedWeight)
			}
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d diverges on listed events\ngot  %+v\nwant %+v", workers, res, ref)
		}
	}
}

// TestChurnEventListsAbsorbed pins the run-time drop rule: a listed
// kill of a resource the stochastic churn already took down is
// skipped (not counted, not crashed), and MinUp caps listed kills.
func TestChurnEventListsAbsorbed(t *testing.T) {
	cfg := listEventConfig(40, 9, 2, nil)
	// Heavy stochastic churn over the same range the lists name.
	cfg.Churn.LeaveProb = 0.9
	cfg.Churn.JoinProb = 0.9
	cfg.Churn.MinUp = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// MinUp = 30 on n = 40: the 10-resource list kill at round 40 can
	// take at most the headroom; with the stochastic churn in the mix
	// the exact count varies, but the run must stay consistent (the
	// per-round invariant checks above did the real work).
	if res.Downs == 0 {
		t.Fatal("no churn happened at all")
	}
}

// TestRecoveryStats drives one clean failure episode and pins the
// transient metrics: episode round, loss size, evacuation load, the
// pre-failure baseline, a peak at or above the baseline, and a drain
// back to it.
func TestRecoveryStats(t *testing.T) {
	cfg := listEventConfig(100, 5, 2, nil)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("want exactly 1 recovery episode, got %d: %+v", len(res.Recoveries), res.Recoveries)
	}
	rs := res.Recoveries[0]
	if rs.Round != 40 || rs.Downs != 25 {
		t.Fatalf("episode at round %d with %d downs, want 40/25", rs.Round, rs.Downs)
	}
	if rs.EvacTasks <= 0 || rs.EvacWeight <= 0 {
		t.Fatalf("episode evacuated nothing: %+v", rs)
	}
	if rs.EvacTasks > res.Rehomed || rs.EvacWeight > res.RehomedWeight+1e-9 {
		t.Fatalf("episode evac (%d, %v) exceeds run totals (%d, %v)",
			rs.EvacTasks, rs.EvacWeight, res.Rehomed, res.RehomedWeight)
	}
	// A non-immediate drain means at least one tracked round sat above
	// the baseline, so the peak must exceed it; an immediate drain
	// (DrainRounds 0) legitimately peaks at or below the baseline.
	if rs.DrainRounds > 0 && rs.PeakOverload <= rs.BaselineOverload {
		t.Fatalf("drained after %d rounds but peak %v never exceeded baseline %v",
			rs.DrainRounds, rs.PeakOverload, rs.BaselineOverload)
	}
	if !rs.Drained() {
		t.Fatalf("oracle-tuned run never drained: %+v", rs)
	}
	if got := res.PeakPostFailureOverload(); got != rs.PeakOverload {
		t.Fatalf("PeakPostFailureOverload() = %v, want %v", got, rs.PeakOverload)
	}
	if got := res.MeanDrainRounds(); got != float64(rs.DrainRounds) {
		t.Fatalf("MeanDrainRounds() = %v, want %v", got, rs.DrainRounds)
	}
}

// TestRecoveryStatsStochasticChurn pins the episode gate: per-round
// stochastic churn (LeaveProb) must NOT open recovery episodes — under
// continuous churn they would be censored one-machine noise growing
// Result.Recoveries without bound.
func TestRecoveryStatsStochasticChurn(t *testing.T) {
	cfg := listEventConfig(60, 21, 1, nil)
	cfg.Churn = Churn{LeaveProb: 0.5, JoinProb: 0.5, MinUp: 30}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Downs == 0 {
		t.Fatal("stochastic churn never fired")
	}
	if len(res.Recoveries) != 0 {
		t.Fatalf("stochastic churn opened %d recovery episodes, want 0", len(res.Recoveries))
	}
}

// TestRecoveryStatsCensored pins the censoring rules: a failure in the
// run's last round leaves an open episode that must be closed as
// censored, and summary helpers must not choke on it.
func TestRecoveryStatsCensored(t *testing.T) {
	cfg := listEventConfig(60, 7, 1, nil)
	cfg.Churn.Events = []ChurnEvent{{Round: 119, Down: 15}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("want 1 episode, got %+v", res.Recoveries)
	}
	rs := res.Recoveries[0]
	if rs.Round != 119 {
		t.Fatalf("episode round %d, want 119", rs.Round)
	}
	if rs.Drained() && rs.DrainRounds != 0 {
		t.Fatalf("last-round episode cannot drain later than its own round: %+v", rs)
	}
	if !rs.Drained() && !math.IsNaN(res.MeanDrainRounds()) {
		t.Fatalf("MeanDrainRounds over censored-only episodes = %v, want NaN", res.MeanDrainRounds())
	}
}

// TestRehomePoliciesDeterministic runs the in-package policies through
// the listed mass failure across worker counts: every policy must be
// bit-identical to its own sequential run, and the load-aware policy
// must actually change the outcome relative to uniform.
func TestRehomePoliciesDeterministic(t *testing.T) {
	build := func(p Dispatch) Dispatch { return p }
	policies := map[string]func() Dispatch{
		"uniform":  func() Dispatch { return build(UniformDispatch{}) },
		"power2":   func() Dispatch { return build(PowerOfD{D: 2}) },
		"speedwtd": func() Dispatch { return build(&SpeedWeighted{}) },
	}
	speeds := speedProfile(80)
	var uniformRef, power2Ref Result
	for name, mk := range policies {
		for _, seed := range []uint64{1, 2} {
			var ref Result
			for _, workers := range []int{1, 2, 4} {
				cfg := listEventConfig(80, seed, workers, mk())
				cfg.Speeds = speeds
				cfg.CheckInvariants = workers == 1
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s seed %d workers %d: %v", name, seed, workers, err)
				}
				if workers == 1 {
					ref = res
					continue
				}
				if !reflect.DeepEqual(res, ref) {
					t.Fatalf("%s seed %d: workers=%d diverges from sequential run", name, seed, workers)
				}
			}
			if seed == 1 {
				switch name {
				case "uniform":
					uniformRef = ref
				case "power2":
					power2Ref = ref
				}
			}
		}
	}
	if reflect.DeepEqual(uniformRef, power2Ref) {
		t.Fatal("power-of-2 re-homing produced the identical run to uniform — the policy is not wired in")
	}
}

// TestNilRehomeMatchesUniform pins the extraction: an explicit
// UniformDispatch must replay the nil-policy (default) run bit for bit —
// the pre-policy engine's behaviour.
func TestNilRehomeMatchesUniform(t *testing.T) {
	a, err := Run(listEventConfig(60, 11, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(listEventConfig(60, 11, 2, UniformDispatch{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("UniformDispatch diverges from the nil-policy default")
	}
}

// TestOnLanesTelemetry pins the exchange backpressure telemetry: every
// routed move — protocol migrations AND churn evacuations — shows up in
// the KindLanes events' inbound totals, the reports arrive on the
// 64-round telemetry period, and attaching the broker does not change
// the run.
func TestOnLanesTelemetry(t *testing.T) {
	build := func() Config {
		cfg := listEventConfig(120, 13, 4, nil)
		cfg.Rounds = 256
		return cfg
	}
	ref, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := build()
	broker := obs.NewBroker()
	cfg.Obs = broker
	sub := broker.Subscribe(obs.SubOptions{Kinds: obs.Mask(obs.KindLanes), Capacity: 1 << 10})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	broker.Close()
	var total int64
	perRound := map[int]int{}
	for _, ev := range drainAll(sub) {
		if ev.Round%64 != 0 {
			t.Fatalf("lane report at round %d with period 64", ev.Round)
		}
		if ev.Lane.Shard != perRound[ev.Round] || ev.Lane.Inbound < 0 {
			t.Fatalf("round %d: lane event %+v out of shard order or negative", ev.Round, ev.Lane)
		}
		perRound[ev.Round]++
		total += ev.Lane.Inbound
	}
	if len(perRound) != 4 {
		t.Fatalf("lanes reported at %d rounds over 256 rounds at period 64", len(perRound))
	}
	for round, shards := range perRound {
		if shards != 4 {
			t.Fatalf("round %d: %d lane events for 4 shards", round, shards)
		}
	}
	if want := res.Migrations + res.Rehomed; total != want {
		t.Fatalf("lane counts sum to %d, want migrations+rehomed = %d", total, want)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatal("attaching a lane subscription changed the run")
	}
}
