package dynamic

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// TestFaultyShardedDeterminism extends the golden cross-worker-count
// contract to unreliable networks: for seeds {1, 2, 3} and workers
// {1, 2, 4, 8}, runs under message loss, delay + duplication,
// scripted partitions and flapping quarantine must each produce
// byte-identical Results — the fault draws are keyed off (task,
// round, attempt), never off the shard split, and the ledger/wheel
// merge is canonical.
func TestFaultyShardedDeterminism(t *testing.T) {
	g := graph.RandomRegular(200, 8, rng.NewSeeded(7))
	proto := func() core.Protocol {
		return core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))}
	}
	quarter := make([]int, 50)
	for i := range quarter {
		quarter[i] = i
	}
	cases := []struct {
		name  string
		build func(seed uint64, workers int) Config
		check func(t *testing.T, res Result)
	}{
		{"loss-retry", func(seed uint64, workers int) Config {
			cfg := goldenConfig(200, proto(), g, Churn{}, seed, workers)
			cfg.Faults = &faults.Plan{Loss: 0.2, RetryBase: 1, RetryCap: 4, Timeout: 12}
			return cfg
		}, func(t *testing.T, res Result) {
			if res.Lost == 0 || res.Retries == 0 {
				t.Fatalf("loss plan injected nothing: %+v", res)
			}
		}},
		{"delay-dup", func(seed uint64, workers int) Config {
			cfg := goldenConfig(200, proto(), g, Churn{}, seed, workers)
			cfg.Faults = &faults.Plan{DelayProb: 0.3, DelayMax: 5, DupProb: 0.2}
			return cfg
		}, func(t *testing.T, res Result) {
			if res.Delayed == 0 || res.Duplicated == 0 || res.Deduped == 0 {
				t.Fatalf("delay/dup plan injected nothing: %+v", res)
			}
		}},
		{"partition", func(seed uint64, workers int) Config {
			cfg := goldenConfig(200, proto(), g, Churn{}, seed, workers)
			cfg.Faults = &faults.Plan{
				Loss: 0.05,
				Partitions: []faults.Partition{
					{Start: 50, End: 120, Members: quarter},
					{Start: 160, End: 200, Members: []int{190, 191, 192, 193}},
				},
			}
			return cfg
		}, func(t *testing.T, res Result) {
			if res.PartitionBlocked == 0 {
				t.Fatalf("partition windows blocked nothing: %+v", res)
			}
		}},
		{"quarantine-churn", func(seed uint64, workers int) Config {
			cfg := goldenConfig(200, proto(), g,
				Churn{LeaveProb: 0.3, JoinProb: 0.3, MinUp: 100}, seed, workers)
			cfg.Faults = &faults.Plan{Loss: 0.1, Timeout: 10}
			// Two transitions (a leave and a rejoin) within the window
			// trip the hold — common at this churn intensity.
			cfg.Quarantine = Quarantine{Flaps: 2, Window: 200, Cooloff: 40}
			return cfg
		}, func(t *testing.T, res Result) {
			if res.Quarantined == 0 {
				t.Fatalf("heavy flapping triggered no quarantine: %+v", res)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3} {
				var ref Result
				for _, workers := range []int{1, 2, 4, 8} {
					cfg := tc.build(seed, workers)
					cfg.CheckInvariants = workers == 1 // once per seed is plenty
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, workers, err)
					}
					if workers == 1 {
						ref = res
						if res.Arrived == 0 || res.Departed == 0 {
							t.Fatalf("seed %d: no traffic: %+v", seed, res)
						}
						tc.check(t, res)
						continue
					}
					if !reflect.DeepEqual(res, ref) {
						t.Fatalf("seed %d: workers=%d diverges from sequential faulty run\ngot  %+v\nwant %+v",
							seed, workers, res, ref)
					}
				}
			}
		})
	}
}

// randomFaultPlan draws a fault plan for an n-resource fleet: loss,
// delay and duplication probabilities in ranges that keep a meaningful
// share of traffic affected, a randomized retry policy, and sometimes
// a partition window over a random contiguous block.
func randomFaultPlan(r *rng.Rand, n, rounds int) *faults.Plan {
	p := &faults.Plan{Seed: r.Uint64()}
	if r.Bool(0.7) {
		p.Loss = 0.3 * r.Float64()
	}
	if r.Bool(0.6) {
		p.DelayProb = 0.3 * r.Float64()
		p.DelayMax = 1 + r.Intn(6)
	}
	if r.Bool(0.5) {
		p.DupProb = 0.2 * r.Float64()
	}
	if r.Bool(0.5) {
		p.RetryBase = 1 + r.Intn(3)
		p.RetryCap = p.RetryBase + r.Intn(8)
		p.Timeout = 5 + r.Intn(25)
	}
	if r.Bool(0.5) {
		size := 1 + r.Intn(n/3)
		lo := r.Intn(n - size)
		members := make([]int, size)
		for i := range members {
			members[i] = lo + i
		}
		start := r.Intn(rounds)
		p.Partitions = append(p.Partitions,
			faults.Partition{Start: start, End: start + 1 + r.Intn(rounds), Members: members})
	}
	if !p.Active() {
		p.Loss = 0.05 + 0.2*r.Float64()
	}
	return p
}

// TestPropertyFaultConservation runs randomized engine configurations
// under randomized fault plans with CheckInvariants on: every round
// the engine re-validates that placed + in-flight weight equals the
// live task-set total (arrived − departed), so loss, retry, timeout
// re-homes, delayed deliveries, duplicates and partition bounces may
// never create or destroy weight. The final task-count balance is
// asserted on top.
func TestPropertyFaultConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised engine runs take a few seconds")
	}
	r := rng.NewSeeded(0xfa17)
	for trial := 0; trial < 12; trial++ {
		cfg := randomPropertyConfig(r)
		cfg.Faults = randomFaultPlan(r, cfg.Graph.N(), cfg.Rounds)
		if r.Bool(0.4) {
			cfg.Quarantine = Quarantine{Flaps: 2 + r.Intn(3), Window: 20 + r.Intn(40), Cooloff: 10 + r.Intn(40)}
		}
		cfg.CheckInvariants = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d (plan %+v): %v", trial, cfg.Faults, err)
		}
		if res.FinalInFlight != int(res.Arrived)-int(res.Departed) {
			t.Fatalf("trial %d: in-flight %d != arrived %d − departed %d",
				trial, res.FinalInFlight, res.Arrived, res.Departed)
		}
		if res.FinalLedger == 0 && res.FinalLedgerWeight != 0 {
			t.Fatalf("trial %d: empty ledger carries weight %v", trial, res.FinalLedgerWeight)
		}
		if w := res.FinalLedgerWeight; math.IsNaN(w) || w < 0 {
			t.Fatalf("trial %d: ledger weight %v", trial, w)
		}
	}
}

// TestFaultLayerInertAtZero pins the degraded-to-clean boundary: with
// the injector wired in but loss, delay and partitions all absent, a
// duplication-only plan must leave the Result identical to a run with
// no plan at all apart from its own dup/dedup counters — duplicate
// copies are always identified and dropped, never a perturbation of
// the placed state.
func TestFaultLayerInertAtZero(t *testing.T) {
	g := graph.RandomRegular(200, 8, rng.NewSeeded(7))
	build := func() Config {
		return goldenConfig(200, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			g, Churn{LeaveProb: 0.1, JoinProb: 0.1, MinUp: 100}, 5, 2)
	}
	clean, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := build()
	cfg.Faults = &faults.Plan{DupProb: 0.3}
	faulty, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Duplicated == 0 || faulty.Duplicated != faulty.Deduped {
		t.Fatalf("dup plan: %d duplicated, %d deduped", faulty.Duplicated, faulty.Deduped)
	}
	faulty.Duplicated, faulty.Deduped = 0, 0
	if !reflect.DeepEqual(clean, faulty) {
		t.Fatalf("dup-only plan perturbed the run\nclean  %+v\nfaulty %+v", clean, faulty)
	}
}

// TestFaultySteadyStateZeroAllocs extends the headline allocation
// budget to fault-enabled runs: with the injector wired in but loss
// at zero (the plan's one partition window expires in round 1), whole
// rounds — including FilterShard's short-circuit, Collect and the
// Tick wheel/ledger scans — must not allocate.
func TestFaultySteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrating benchmark runs take ~1s each")
	}
	if raceEnabled {
		t.Skip("race instrumentation shrinks the calibrated iteration count, so one-time construction no longer amortises below 1 alloc/op")
	}
	g := graph.RandomRegular(256, 8, rng.NewSeeded(3))
	for _, workers := range []int{1, 2} {
		res := testing.Benchmark(func(b *testing.B) {
			cfg := Config{
				Graph:    g,
				Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Arrivals: Poisson{Rate: 0.8 * 256 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
				Service:  WeightProportional{Rate: 1},
				Tuner: &SelfTuner{Eps: 0.5, Steps: 2,
					Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Faults:  &faults.Plan{Partitions: []faults.Partition{{Start: 0, End: 1, Members: []int{255}}}},
				Rounds:  b.N,
				Window:  1 << 30,
				Seed:    0x5eed,
				Workers: workers,
			}
			b.ReportAllocs()
			if _, err := Run(cfg); err != nil {
				b.Fatal(err)
			}
		})
		if allocs := res.AllocsPerOp(); allocs != 0 {
			t.Fatalf("workers=%d: fault-enabled steady-state round allocates %d times/op (%d B/op), want 0",
				workers, allocs, res.AllocedBytesPerOp())
		}
	}
}
