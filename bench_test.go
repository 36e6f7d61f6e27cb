// Benchmarks regenerating every table and figure of the paper's
// evaluation (deliverable d). Each BenchmarkTable*/BenchmarkFigure*/
// Benchmark<Theorem> target runs the corresponding experiment driver
// end to end on a reduced (Quick) parameter sweep so that one bench
// iteration is a full, self-contained reproduction pass; cmd/lbbench
// runs the full-scale versions and prints the tables.
//
// The trailing micro-benchmarks measure protocol-round throughput,
// which is the quantity that decides how large a full reproduction can
// be on a given machine.
package thresholdlb

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/recovery"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/task"
	"repro/internal/walk"
)

// benchCfg keeps one bench iteration small but real.
func benchCfg() experiments.Config {
	return experiments.Config{Trials: 2, Workers: 2, Seed: 0xbe7c4, Quick: true}
}

func runDriver(b *testing.B, id string) {
	b.Helper()
	d := experiments.Lookup(id)
	if d == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := d(benchCfg())
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkTable1 regenerates Table 1/2 (mixing and hitting times of
// the five graph families).
func BenchmarkTable1(b *testing.B) { runDriver(b, "table1") }

// BenchmarkFigure1 regenerates Figure 1 (user-controlled balancing
// time vs total weight W for k heavy tasks).
func BenchmarkFigure1(b *testing.B) { runDriver(b, "figure1") }

// BenchmarkFigure2 regenerates Figure 2 (normalised balancing time vs
// m for growing wmax).
func BenchmarkFigure2(b *testing.B) { runDriver(b, "figure2") }

// BenchmarkTheorem3 regenerates the Theorem 3 shape check
// (resource-controlled, above-average thresholds, rounds vs τ·ln m).
func BenchmarkTheorem3(b *testing.B) { runDriver(b, "theorem3") }

// BenchmarkTheorem7 regenerates the Theorem 7 shape check
// (resource-controlled, tight thresholds, rounds vs H·ln W).
func BenchmarkTheorem7(b *testing.B) { runDriver(b, "theorem7") }

// BenchmarkObservation8 regenerates the Observation 8 lower-bound
// experiment on the clique+pendant family.
func BenchmarkObservation8(b *testing.B) { runDriver(b, "obs8") }

// BenchmarkAlphaSweep regenerates the Theorem 11/12 α sweep.
func BenchmarkAlphaSweep(b *testing.B) { runDriver(b, "alpha") }

// BenchmarkPotentialDrop regenerates the Lemma 1 / Observation 4 /
// Lemma 5 / Lemma 10 validation.
func BenchmarkPotentialDrop(b *testing.B) { runDriver(b, "potential") }

// BenchmarkDiffusion regenerates the footnote-1 diffusion-threshold
// end-to-end experiment.
func BenchmarkDiffusion(b *testing.B) { runDriver(b, "diffusion") }

// BenchmarkAblation regenerates the design-choice ablations.
func BenchmarkAblation(b *testing.B) { runDriver(b, "ablation") }

// BenchmarkBaselines regenerates the related-work baseline comparison
// (diffusion, Greedy[2], (1+β), least-loaded oracle).
func BenchmarkBaselines(b *testing.B) { runDriver(b, "baselines") }

// BenchmarkResourceControlledRound measures single-round cost of
// Algorithm 5.1 on a 32×32 torus with 4096 weighted tasks.
func BenchmarkResourceControlledRound(b *testing.B) {
	g := graph.Grid2D(32, 32, true)
	ts := task.NewSet(task.UniformRange{Lo: 1, Hi: 4}.Weights(4*g.N(), newBenchRand()))
	placement := make([]int, ts.M())
	kernel := walk.NewLazy(walk.NewMaxDegree(g))
	p := core.ResourceControlled{Kernel: kernel}
	s := core.NewState(g, ts, placement, core.AboveAverage{Eps: 0.5}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Balanced() {
			// Re-arm with a fresh state so rounds keep doing work.
			b.StopTimer()
			s = core.NewState(g, ts, placement, core.AboveAverage{Eps: 0.5}, uint64(i))
			b.StartTimer()
		}
		s.Step(p)
	}
}

// BenchmarkUserControlledRound measures single-round cost of
// Algorithm 6.1 on the complete graph with n=1000, m=10000.
func BenchmarkUserControlledRound(b *testing.B) {
	g := graph.Complete(1000)
	ts := task.NewSet(task.TwoPoint{Heavy: 50, K: 20}.Weights(10000, newBenchRand()))
	placement := make([]int, ts.M())
	p := core.UserControlled{Alpha: 1}
	s := core.NewState(g, ts, placement, core.AboveAverage{Eps: 0.2}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Balanced() {
			b.StopTimer()
			s = core.NewState(g, ts, placement, core.AboveAverage{Eps: 0.2}, uint64(i))
			b.StartTimer()
		}
		s.Step(p)
	}
}

// BenchmarkFullUserRun measures a complete Figure-1-style run
// (n=1000, W=10000, k=1) from single-source placement to balance.
func BenchmarkFullUserRun(b *testing.B) {
	g := graph.Complete(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ts := task.NewSet(task.TwoPoint{Heavy: 50, K: 1}.Weights(9951, newBenchRand()))
		s := core.NewState(g, ts, make([]int, ts.M()), core.AboveAverage{Eps: 0.2}, uint64(i))
		res := core.Run(s, core.UserControlled{Alpha: 1}, core.RunOptions{MaxRounds: 1_000_000})
		if !res.Balanced {
			b.Fatal("run did not balance")
		}
	}
}

// BenchmarkDynamicRho regenerates the open-system utilisation sweep
// (arrival rate ρ → 1, self-tuned thresholds).
func BenchmarkDynamicRho(b *testing.B) { runDriver(b, "dynrho") }

// BenchmarkDynamicChurn regenerates the open-system churn sweep
// (weight conservation across resource join/leave).
func BenchmarkDynamicChurn(b *testing.B) { runDriver(b, "dynchurn") }

// benchDynamicRound measures the dynamic engine's steady-state
// per-round cost — churnless Poisson arrivals at ρ = 0.8 with
// heavy-tailed weights, self-tuned thresholds, one protocol round per
// iteration. Each op is one simulated round (the first ~100 warm the
// system up; at bench-scale iteration counts they are noise). workers
// ≤ 0 selects GOMAXPROCS; any worker count produces bit-identical
// results, so the variants differ only in wall clock.
func benchDynamicRound(b *testing.B, g *graph.Graph, proto core.Protocol, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.N()
	cfg := dynamic.Config{
		Graph:    g,
		Protocol: proto,
		Arrivals: dynamic.Poisson{Rate: 0.8 * float64(n) / 1.95,
			Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service: dynamic.WeightProportional{Rate: 1},
		Tuner: &dynamic.SelfTuner{Eps: 0.5, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Rounds:  b.N,
		Window:  1 << 30, // one giant window: no per-window work measured
		Seed:    0x9e3779b97f4a7c15,
		Workers: workers,
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := dynamic.Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDynamicRound1k: user-controlled rounds on K_1000 under
// steady ρ = 0.8 Poisson traffic, sharded across GOMAXPROCS workers.
func BenchmarkDynamicRound1k(b *testing.B) {
	benchDynamicRound(b, graph.Complete(1000), core.UserControlled{Alpha: 1}, 0)
}

// BenchmarkDynamicRound10k: resource-controlled rounds on a 16-regular
// expander with 10000 resources under steady ρ = 0.8 Poisson traffic,
// sharded across GOMAXPROCS workers.
func BenchmarkDynamicRound10k(b *testing.B) {
	g := graph.RandomRegular(10000, 16, newBenchRand())
	benchDynamicRound(b, g, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))}, 0)
}

// BenchmarkDynamicRound10kSeq is the Workers=1 control for the same
// workload: the single-core-normalised figure the perf trajectory in
// BENCH_dynamic.json tracks against BENCH_baseline.json.
func BenchmarkDynamicRound10kSeq(b *testing.B) {
	g := graph.RandomRegular(10000, 16, newBenchRand())
	benchDynamicRound(b, g, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))}, 1)
}

// BenchmarkDynamicRoundHetero: steady-state rounds on a heterogeneous
// 10000-resource fleet with a 10:1 speed spread (classes 1/2/4/10
// interleaved): speed-scaled weight-proportional service, the
// speed-mass self-tuner converging to the proportional
// (W/S_up)·s_r targets, and speed-weighted ingress, under ρ = 0.8 of
// the fleet's TOTAL capacity — 4.25× the homogeneous arrival volume on
// the same machine count. One op is one simulated round.
func BenchmarkDynamicRoundHetero(b *testing.B) {
	const n = 10_000
	g := graph.RandomRegular(n, 16, newBenchRand())
	speeds := make([]float64, n)
	totalSpeed := 0.0
	for r := range speeds {
		speeds[r] = []float64{1, 2, 4, 10}[r%4]
		totalSpeed += speeds[r]
	}
	cfg := dynamic.Config{
		Graph:    g,
		Speeds:   speeds,
		Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals: dynamic.Poisson{Rate: 0.8 * totalSpeed / 1.95,
			Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  dynamic.WeightProportional{Rate: 1},
		Dispatch: &dynamic.SpeedWeighted{},
		Tuner: &dynamic.SelfTuner{Eps: 0.5, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Rounds:  b.N,
		Window:  1 << 30,
		Seed:    0x9e3779b97f4a7c15,
		Workers: runtime.GOMAXPROCS(0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := dynamic.Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDynamicRoundObserved: the BenchmarkDynamicRound10k workload
// with the full observability stack attached — an event broker
// publishing per-window, per-shard, lane and phase-timing events, one
// actively-draining subscription, and a registered (unscraped)
// Prometheus exporter whose bounded ring absorbs or drops what the
// scrape never collects. One op is one simulated round; the delta
// against BenchmarkDynamicRound10k is the total cost of telemetry.
func BenchmarkDynamicRoundObserved(b *testing.B) {
	const n = 10_000
	g := graph.RandomRegular(n, 16, newBenchRand())
	broker := obs.NewBroker()
	obs.NewExporter(broker, 4096)
	sub := broker.Subscribe(obs.SubOptions{Capacity: 4096})
	done := make(chan struct{})
	seen := 0
	go func() {
		defer close(done)
		buf := make([]obs.Event, 0, 256)
		for evs := sub.Wait(buf); evs != nil; evs = sub.Wait(buf) {
			seen += len(evs)
		}
	}()
	cfg := dynamic.Config{
		Graph:    g,
		Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals: dynamic.Poisson{Rate: 0.8 * float64(n) / 1.95,
			Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service: dynamic.WeightProportional{Rate: 1},
		Tuner: &dynamic.SelfTuner{Eps: 0.5, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Obs:     broker,
		Rounds:  b.N,
		Window:  1 << 30,
		Seed:    0x9e3779b97f4a7c15,
		Workers: runtime.GOMAXPROCS(0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := dynamic.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	broker.Close()
	<-done
	if seen == 0 {
		b.Fatal("active subscription saw no events")
	}
}

// BenchmarkDynamicRoundFaulty: the BenchmarkDynamicRound10k workload
// with the unreliable-network layer active — 1% message loss (retried
// with capped backoff off the in-flight ledger, re-homed on timeout),
// a 0.5% chance of a 1–4 round delay and 0.1% duplication. One op is
// one simulated round; the delta against BenchmarkDynamicRound10k is
// the full cost of fault draws, ledger/wheel upkeep and the extra
// late-delivery exchange.
func BenchmarkDynamicRoundFaulty(b *testing.B) {
	const n = 10_000
	g := graph.RandomRegular(n, 16, newBenchRand())
	cfg := dynamic.Config{
		Graph:    g,
		Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals: dynamic.Poisson{Rate: 0.8 * float64(n) / 1.95,
			Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service: dynamic.WeightProportional{Rate: 1},
		Tuner: &dynamic.SelfTuner{Eps: 0.5, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Faults: &faults.Plan{Loss: 0.01, DelayProb: 0.005, DelayMax: 4,
			DupProb: 0.001, RetryBase: 1, RetryCap: 8, Timeout: 30},
		Rounds:  b.N,
		Window:  1 << 30,
		Seed:    0x9e3779b97f4a7c15,
		Workers: runtime.GOMAXPROCS(0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := dynamic.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if b.N > 100 && res.Lost == 0 {
		b.Fatal("fault layer injected nothing")
	}
}

// BenchmarkDynamicRoundTraced: the BenchmarkDynamicRound10k workload
// with task-lifecycle tracing on at a 1/64 sampling rate — an event
// broker with one actively-draining KindTrace subscription, so every
// sampled arrival, hop and departure is hashed, recorded and
// published. One op is one simulated round; the delta against
// BenchmarkDynamicRound10k is the full cost of sampled tracing (the
// always-on histograms are included in the untraced figure already).
func BenchmarkDynamicRoundTraced(b *testing.B) {
	const n = 10_000
	g := graph.RandomRegular(n, 16, newBenchRand())
	broker := obs.NewBroker()
	sub := broker.Subscribe(obs.SubOptions{
		Kinds: obs.Mask(obs.KindTrace, obs.KindTraceHist), Capacity: 8192})
	done := make(chan struct{})
	seen := 0
	go func() {
		defer close(done)
		buf := make([]obs.Event, 0, 256)
		for evs := sub.Wait(buf); evs != nil; evs = sub.Wait(buf) {
			seen += len(evs)
		}
	}()
	cfg := dynamic.Config{
		Graph:    g,
		Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals: dynamic.Poisson{Rate: 0.8 * float64(n) / 1.95,
			Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service: dynamic.WeightProportional{Rate: 1},
		Tuner: &dynamic.SelfTuner{Eps: 0.5, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Obs:         broker,
		TraceSample: 1.0 / 64,
		Rounds:      b.N,
		Window:      1 << 30,
		Seed:        0x9e3779b97f4a7c15,
		Workers:     runtime.GOMAXPROCS(0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := dynamic.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	broker.Close()
	<-done
	if b.N > 100 && seen == 0 {
		b.Fatal("trace subscription saw no events")
	}
}

// graph100k is BenchmarkDynamicRound100k's expander, built once per
// test process: go calls a benchmark function at b.N = 1 and again at
// the predicted N, and each build takes seconds.
var graph100k = sync.OnceValue(func() *graph.Graph {
	return graph.RandomRegular(100_000, 16, newBenchRand())
})

// BenchmarkDynamicRound100k: the n = 10⁵ regime of Goldsztajn et al.
// that the sequential engine could not reach practically — a 16-regular
// expander with 100000 resources, ~41000 arrivals per round, sharded
// across GOMAXPROCS workers.
func BenchmarkDynamicRound100k(b *testing.B) {
	g := graph100k()
	benchDynamicRound(b, g, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))}, 0)
}

// BenchmarkDeliver measures the per-destination-shard delivery
// exchange in isolation: 20000 tasks on 10000 resources are popped by
// their source shards and re-delivered to rotated destinations through
// core.Exchange every iteration — route (sort + lane segmentation),
// the per-destination k-way merge, and the canonical stats fold. One
// op is one full cross-shard delivery of 20000 moves.
func BenchmarkDeliver(b *testing.B) {
	const (
		n      = 10_000
		m      = 2 * n
		shards = 8
	)
	g := graph.RandomRegular(n, 16, newBenchRand())
	ts := task.NewSet(task.UniformRange{Lo: 1, Hi: 4}.Weights(m, newBenchRand()))
	placement := make([]int, m)
	for i := range placement {
		placement[i] = i % n
	}
	s := core.NewState(g, ts, placement, core.AboveAverage{Eps: 0.5}, 1)
	bounds := make([]int, shards+1)
	for i := 0; i <= shards; i++ {
		bounds[i] = i * n / shards
	}
	x := core.NewExchange(bounds)
	pool := par.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	moves := make([][]core.Migration, shards)
	route := func(i int) {
		lo, hi := bounds[i], bounds[i+1]
		moves[i] = moves[i][:0]
		for r := lo; r < hi; r++ {
			for _, tk := range s.Stack(r).Tasks() {
				moves[i] = append(moves[i],
					core.Migration{Task: tk, Dest: int32((r + n/2 + 1) % n)})
			}
			s.Stack(r).Reset()
		}
		x.Route(i, moves[i])
	}
	deliver := func(j int) { x.DeliverShard(s, j) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Run(shards, route)
		pool.Run(shards, deliver)
		st := x.Finish(s, false)
		if st.Migrations != m {
			b.Fatalf("delivered %d of %d moves", st.Migrations, m)
		}
	}
}

// BenchmarkMassChurn10k measures mass-failure rounds end to end: a
// 10000-resource open system under steady ρ = 0.8 traffic where every
// 20th round 1000 resources fail simultaneously (their tasks evacuate
// through the sharded exchange) and rejoin 10 rounds later. One op is
// one simulated round, ~1/20 of which carry a rack-loss evacuation.
func BenchmarkMassChurn10k(b *testing.B) {
	g := graph.RandomRegular(10_000, 16, newBenchRand())
	cfg := dynamic.Config{
		Graph:    g,
		Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals: dynamic.Poisson{Rate: 0.8 * 10_000 / 1.95,
			Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service: dynamic.WeightProportional{Rate: 1},
		Tuner: &dynamic.SelfTuner{Eps: 0.5, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Churn: dynamic.Churn{
			MinUp: 5_000,
			Events: []dynamic.ChurnEvent{
				{Round: 10, Every: 20, Down: 1000},
				{Round: 20, Every: 20, Up: 1000},
			},
		},
		Rounds:  b.N,
		Window:  1 << 30,
		Seed:    0x9e3779b97f4a7c15,
		Workers: runtime.GOMAXPROCS(0),
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := dynamic.Run(cfg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRackLossRecover measures topology-aware mass-failure
// recovery end to end, one sub-benchmark per re-home policy: a
// 10000-resource fleet laid out as 8 racks (speed classes 1/2/4/10
// interleaved, so every rack mixes all classes) under steady ρ = 0.8
// traffic loses whole rack 0 — 1250 machines, ~1/8 of the fleet —
// every 40th round and gets it back 20 rounds later. One op is one
// simulated round, ~1/40 of which carry the rack-loss evacuation
// routed by the policy under test (uniform, load-aware power-of-2,
// topology-aware locality, speed-weighted).
func BenchmarkRackLossRecover(b *testing.B) {
	const n = 10_000
	topo, err := recovery.Synth(n, 8, 2)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.RandomRegular(n, 16, newBenchRand())
	speeds := make([]float64, n)
	totalSpeed := 0.0
	for r := range speeds {
		speeds[r] = []float64{1, 2, 4, 10}[r%4]
		totalSpeed += speeds[r]
	}
	rack0 := topo.RackList(0, nil)
	policies := []struct {
		name string
		mk   func() dynamic.Dispatch
	}{
		{"uniform", func() dynamic.Dispatch { return dynamic.UniformDispatch{} }},
		{"power2", func() dynamic.Dispatch { return dynamic.PowerOfD{D: 2} }},
		{"locality", func() dynamic.Dispatch { return &recovery.Locality{Topo: topo} }},
		{"speed", func() dynamic.Dispatch { return &dynamic.SpeedWeighted{} }},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			cfg := dynamic.Config{
				Graph:    g,
				Speeds:   speeds,
				Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Arrivals: dynamic.Poisson{Rate: 0.8 * totalSpeed / 1.95,
					Weights: task.Pareto{Alpha: 2, Cap: 20}},
				Service:  dynamic.WeightProportional{Rate: 1},
				Dispatch: dynamic.PowerOfD{D: 2},
				Rehome:   pol.mk(),
				Tuner: &dynamic.SelfTuner{Eps: 0.5, Steps: 2,
					Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Churn: dynamic.Churn{
					MinUp: n / 4,
					Events: []dynamic.ChurnEvent{
						{Round: 10, Every: 40, DownList: rack0},
						{Round: 30, Every: 40, UpList: rack0},
					},
				},
				Rounds:  b.N,
				Window:  1 << 30,
				Seed:    0x9e3779b97f4a7c15,
				Workers: runtime.GOMAXPROCS(0),
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := dynamic.Run(cfg); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkHittingTime measures H(G) computation on a 16×16 torus.
func BenchmarkHittingTime(b *testing.B) {
	g := graph.Grid2D(16, 16, true)
	k := walk.NewMaxDegree(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk.HittingTimesTo(k, 0, 1e-8, 2_000_000)
	}
}

// BenchmarkMixingTime measures the exact TV mixing-time computation on
// a 16×16 torus.
func BenchmarkMixingTime(b *testing.B) {
	g := graph.Grid2D(16, 16, true)
	k := walk.NewLazy(walk.NewMaxDegree(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk.MixingTimeTV(k, []int{0}, walk.DefaultMixingEps, 10_000_000)
	}
}

// BenchmarkDiffuse times one full diffusion step of the self-tuner's
// refresh on the (1000, 16) expander the sim and serve workloads run,
// under the lazy max-degree kernel the tuner uses: single advances the
// load estimate alone (walk.EvolveDistRange), pair the estimate and its
// up-mass companion in one pass (walk.EvolvePairRange), as a refresh
// does once a resource has been down or speeds are set. The graph is
// built outside the timer; one op is one step over all 1000 rows. The
// allocs gate of 0 catches a per-call buffer coming into the kernel.
func BenchmarkDiffuse(b *testing.B) {
	g := graph.RandomRegular(1000, 16, newBenchRand())
	k := walk.NewLazy(walk.NewMaxDegree(g))
	r := newBenchRand()
	n := g.N()
	x, nx := make([]float64, n), make([]float64, n)
	y, ny := make([]float64, n), make([]float64, n)
	for v := range x {
		x[v] = 20 * r.Float64()
		y[v] = r.Float64()
	}
	b.Run("single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			walk.EvolveDistRange(k, x, nx, 0, n)
		}
	})
	b.Run("pair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			walk.EvolvePairRange(k, x, nx, y, ny, 0, n)
		}
	})
}

// graphSink keeps BenchmarkGraphBuild's builds from being optimised away.
var graphSink *graph.Graph

// BenchmarkGraphBuild builds the graphs the paper's experiments and
// the engine benchmarks run on: K_1000 (Figure 1, lbserve's default),
// the 32×32 torus (Theorem 3) and the 1000-node 16-regular expander.
// One op is one generator call, with Build's connectivity BFS where the
// generator goes through Build. The allocs gates catch a map or a
// per-vertex sort coming back into Build, an edge list coming back
// into Complete, which writes its CSR arrays directly, and a Go map
// coming back into RandomRegular's swap loop.
func BenchmarkGraphBuild(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func() *graph.Graph
	}{
		{"complete1000", func() *graph.Graph { return graph.Complete(1000) }},
		{"torus32", func() *graph.Graph { return graph.Grid2D(32, 32, true) }},
		{"expander1000x16", func() *graph.Graph { return graph.RandomRegular(1000, 16, newBenchRand()) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graphSink = bc.build()
			}
		})
	}
}

// checkpointBenchConfig is the BenchmarkDynamicRound10k workload with
// a fixed horizon — the warm steady-state fleet the checkpoint
// benchmarks snapshot (~8k live tasks across 10k resources). A fresh
// config (fresh tuner included) is required per engine, matching the
// restore identity contract.
func checkpointBenchConfig(g *graph.Graph, rounds int) dynamic.Config {
	n := g.N()
	return dynamic.Config{
		Graph:    g,
		Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals: dynamic.Poisson{Rate: 0.8 * float64(n) / 1.95,
			Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service: dynamic.WeightProportional{Rate: 1},
		Tuner: &dynamic.SelfTuner{Eps: 0.5, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Rounds:  rounds,
		Window:  1 << 30,
		Seed:    0x9e3779b97f4a7c15,
		Workers: runtime.GOMAXPROCS(0),
	}
}

// BenchmarkCheckpoint10k: one complete engine checkpoint — every task,
// per-resource stack, RNG stream, tuner estimate and accumulator of
// the warm 10000-resource fleet — encoded into the reusable snapshot
// buffer and written to io.Discard. One op is one full snapshot; after
// the buffer's high-water mark the encode itself is allocation-free.
func BenchmarkCheckpoint10k(b *testing.B) {
	g := graph.RandomRegular(10_000, 16, newBenchRand())
	eng, err := dynamic.NewEngine(checkpointBenchConfig(g, 200))
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Checkpoint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResume10k: restoring the same warm-fleet snapshot into a
// fresh engine — full decode, checksum verification and state rebuild,
// worker pool included. One op is one complete Resume.
func BenchmarkResume10k(b *testing.B) {
	g := graph.RandomRegular(10_000, 16, newBenchRand())
	snap := warmSnapshot(b, checkpointBenchConfig(g, 200))
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := dynamic.Resume(bytes.NewReader(snap), checkpointBenchConfig(g, 200))
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// BenchmarkResumeCheckpoint1k: the restart perfbench's sim workloads
// time, on the warm 1,000-resource fleet at one worker — a Resume of
// its snapshot, then a checkpoint of the resumed engine. One op is one
// Resume and that engine's first checkpoint, which
// BenchmarkCheckpoint10k's warm encoder cannot show: the allocs gate
// fails if the checkpoint grows its buffer from empty again, or if the
// restore goes back to one allocation per stack.
func BenchmarkResumeCheckpoint1k(b *testing.B) {
	g := graph.RandomRegular(1000, 16, newBenchRand())
	config := func() dynamic.Config {
		cfg := checkpointBenchConfig(g, 200)
		cfg.Workers = 1
		return cfg
	}
	snap := warmSnapshot(b, config())
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := dynamic.Resume(bytes.NewReader(snap), config())
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Checkpoint(io.Discard); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// warmSnapshot runs an engine of cfg to its horizon and returns its
// checkpoint there.
func warmSnapshot(b *testing.B, cfg dynamic.Config) []byte {
	eng, err := dynamic.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func newBenchRand() *rng.Rand { return rng.NewSeeded(0x9e3779b97f4a7c15) }

// BenchmarkLiveIngest10k: the live serving runtime's hot path — 10k
// tasks pushed through Runtime.Ingest in 1000-task batches, then the
// round stepped through the lockstep engine (arrivals dispatched,
// service, tuner, propose/deliver). One op is one full live round with
// 10k admitted arrivals on the warm 10000-resource fleet.
func BenchmarkLiveIngest10k(b *testing.B) {
	g := graph.RandomRegular(10_000, 16, newBenchRand())
	cfg := checkpointBenchConfig(g, 1<<30)
	cfg.Arrivals = dynamic.External{}
	eng, err := dynamic.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	rt := serve.New(eng, "uniform", serve.Options{})
	batch := make([]float64, 1000)
	for i := range batch {
		batch[i] = 1 + float64(i%7)/2
	}
	// Warm the fleet and the runtime's buffers.
	for r := 0; r < 20; r++ {
		for j := 0; j < 10; j++ {
			if _, err := rt.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := rt.StepRound(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 10; j++ {
			if _, err := rt.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := rt.StepRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// roundLogBench is a serve-live-sized round log: 1,539 rounds (one
// perfbench serve-live life) of 300 weights (three 100-task batches)
// drawn from Pareto(2) and capped at 20, as AppendRecord writes it.
func roundLogBench(tb testing.TB) ([]serve.RoundRecord, []byte) {
	tb.Helper()
	r := rng.NewSeeded(0x5e7e)
	recs := make([]serve.RoundRecord, 1539)
	var buf bytes.Buffer
	for i := range recs {
		w := make([]float64, 300)
		for j := range w {
			w[j] = math.Min(r.Pareto(1, 2), 20)
		}
		recs[i] = serve.RoundRecord{Round: i, Weights: w}
		if err := serve.AppendRecord(&buf, &recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return recs, buf.Bytes()
}

// TestRoundLogBenchBytes pins the bytes of roundLogBench's log, which
// AppendRecord writes: 461,700 weights, each the shortest decimal that
// reads back to it. WriteRoundLog, which formats every record into one
// reused buffer, must write the same bytes. The digest was recorded
// while strconv formatted every weight.
func TestRoundLogBenchBytes(t *testing.T) {
	recs, log := roundLogBench(t)
	var whole bytes.Buffer
	if err := WriteRoundLog(&whole, recs); err != nil {
		t.Fatal(err)
	}
	const want = "22f306ee3edcfa3f3db5c00819ea64de23df9577b0cb7e88821cded2405855f6"
	for _, b := range [][]byte{log, whole.Bytes()} {
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
			t.Fatalf("round log SHA-256 %s, want %s", got, want)
		}
	}
}

// BenchmarkReadRoundLog: the read a live-runtime resume makes of its
// round log. canonical is the log as the runtime writes it, whose lines
// ReadRoundLog parses itself; spaced is the same log with a space after
// every comma, a hand-formatted log whose every line takes the strict
// encoding/json decode. One op reads the whole log.
func BenchmarkReadRoundLog(b *testing.B) {
	recs, canonical := roundLogBench(b)
	for _, bc := range []struct {
		name string
		log  []byte
	}{
		{"canonical", canonical},
		{"spaced", bytes.ReplaceAll(canonical, []byte(","), []byte(", "))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.log)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := serve.ReadRoundLog(bytes.NewReader(bc.log))
				if err != nil || len(got) != len(recs) {
					b.Fatalf("read %d of %d records: %v", len(got), len(recs), err)
				}
			}
		})
	}
}

// BenchmarkAppendRecord: the round log's write of one serve-live round
// record (300 weights), as StepRound makes it ahead of every round.
func BenchmarkAppendRecord(b *testing.B) {
	recs, _ := roundLogBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serve.AppendRecord(io.Discard, &recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}
