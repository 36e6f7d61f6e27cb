package dynamic

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/walk"
)

// lifecycleConfig is the lifecycle-tracing workload: the golden
// churn+faults mix (evacuations, bounced deliveries, partition cuts,
// loss/retry/timeout, delays) so every hop cause appears in the
// stream, with a quarter of the tasks sampled.
func lifecycleConfig(g *graph.Graph, n int, seed uint64, workers int) Config {
	quarter := make([]int, n/4)
	for i := range quarter {
		quarter[i] = i
	}
	cfg := goldenConfig(n, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		g, Churn{
			MinUp: n / 2,
			Events: []ChurnEvent{
				{Round: 60, Down: n / 2},
				{Round: 150, Up: n / 2},
			},
		}, seed, workers)
	cfg.Faults = &faults.Plan{
		Loss: 0.1, DelayProb: 0.1, DelayMax: 4, RetryBase: 1, RetryCap: 4, Timeout: 12,
		Partitions: []faults.Partition{{Start: 90, End: 130, Members: quarter}},
	}
	cfg.TraceSample = 0.25
	return cfg
}

// collectTrace runs cfg with a KindTrace subscription attached and
// returns the Result plus the record stream.
func collectTrace(t *testing.T, cfg Config) (Result, []trace.Record) {
	t.Helper()
	broker := obs.NewBroker()
	cfg.Obs = broker
	sub := broker.Subscribe(obs.SubOptions{Capacity: 1 << 17, Kinds: obs.Mask(obs.KindTrace)})
	res, err := Run(cfg)
	broker.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := sub.Dropped(); n > 0 {
		t.Fatalf("trace subscription dropped %d records; raise the test ring capacity", n)
	}
	evs := drainAll(sub)
	recs := make([]trace.Record, len(evs))
	for i := range evs {
		recs[i] = evs[i].Trace
	}
	return res, recs
}

// TestTracedLifecycleDeterminism is the golden tracing test: for seeds
// {1, 2, 3} and workers {1, 2, 4, 8}, a traced run's Result must be
// bit-identical to the untraced run's (tracing never perturbs the
// simulation), and the record stream itself must be identical across
// worker counts — ordering included. The workload exercises every hop
// cause; the stream must contain each of them.
func TestTracedLifecycleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("traced determinism matrix is not short")
	}
	const n = 200
	g := graph.RandomRegular(n, 8, rng.NewSeeded(21))
	for _, seed := range []uint64{1, 2, 3} {
		var refRecs []trace.Record
		for _, workers := range []int{1, 2, 4, 8} {
			plainCfg := lifecycleConfig(g, n, seed, workers)
			plainCfg.TraceSample = 0
			plain, err := Run(plainCfg)
			if err != nil {
				t.Fatalf("seed %d workers %d untraced: %v", seed, workers, err)
			}

			res, recs := collectTrace(t, lifecycleConfig(g, n, seed, workers))
			if !reflect.DeepEqual(res, plain) {
				t.Fatalf("seed %d workers %d: tracing changed the Result\ntraced   %+v\nuntraced %+v",
					seed, workers, res, plain)
			}
			if len(recs) == 0 {
				t.Fatalf("seed %d workers %d: no trace records at sample=0.25", seed, workers)
			}
			for i := range recs {
				if err := recs[i].Validate(); err != nil {
					t.Fatalf("seed %d workers %d: record %d invalid: %v (%+v)", seed, workers, i, err, recs[i])
				}
			}
			if workers == 1 {
				refRecs = recs
				causes := map[trace.Cause]int{}
				for i := range recs {
					if recs[i].Op == trace.OpHop {
						causes[recs[i].Cause]++
					}
				}
				for _, want := range []trace.Cause{
					trace.CauseProtocol, trace.CauseEvac, trace.CauseDelay,
					trace.CauseRetry, trace.CauseTimeout, trace.CausePartition,
				} {
					if causes[want] == 0 {
						t.Errorf("seed %d: no %s hops in the stream (causes: %v)", seed, want, causes)
					}
				}
				continue
			}
			if !reflect.DeepEqual(recs, refRecs) {
				m := len(recs)
				if len(refRecs) < m {
					m = len(refRecs)
				}
				for i := 0; i < m; i++ {
					if recs[i] != refRecs[i] {
						t.Fatalf("seed %d workers %d: record %d diverges from sequential\ngot  %+v\nwant %+v",
							seed, workers, i, recs[i], refRecs[i])
					}
				}
				t.Fatalf("seed %d workers %d: stream length %d, want %d", seed, workers, len(recs), len(refRecs))
			}
		}
	}
}

// TestTracedTimelineConsistency replays one traced run's stream as
// per-task timelines and checks the lifecycle invariants: every
// sampled life opens with an arrival and closes with a departure whose
// sojourn and hop totals match the timeline (task IDs recycle, so a
// task column holds many consecutive lives).
func TestTracedTimelineConsistency(t *testing.T) {
	const n = 200
	g := graph.RandomRegular(n, 8, rng.NewSeeded(21))
	res, recs := collectTrace(t, lifecycleConfig(g, n, 1, 4))

	type life struct {
		arriveRound int
		hops        int32
		open        bool
	}
	lives := map[int]*life{}
	departs := 0
	for i := range recs {
		r := &recs[i]
		l := lives[r.Task]
		switch r.Op {
		case trace.OpArrive:
			if l != nil && l.open {
				t.Fatalf("record %d: task %d arrived while already in system (%+v)", i, r.Task, r)
			}
			lives[r.Task] = &life{arriveRound: r.Round, open: true}
		case trace.OpDepart:
			if l == nil || !l.open {
				t.Fatalf("record %d: task %d departed without an open life (%+v)", i, r.Task, r)
			}
			if want := int32(r.Round - l.arriveRound); r.Sojourn != want {
				t.Fatalf("record %d: task %d sojourn %d, want %d (arrived %d, departed %d)",
					i, r.Task, r.Sojourn, want, l.arriveRound, r.Round)
			}
			if r.Hops != l.hops {
				t.Fatalf("record %d: task %d departed with hops=%d, timeline counted %d", i, r.Task, r.Hops, l.hops)
			}
			l.open = false
			departs++
		case trace.OpHop:
			if l == nil || !l.open {
				t.Fatalf("record %d: task %d hopped without an open life (%+v)", i, r.Task, r)
			}
			// Bounces and timeout re-homes leave the task in place
			// (From == To) and do not advance the hop count.
			if r.From != r.To {
				l.hops++
			}
			if r.Hops != l.hops {
				t.Fatalf("record %d: task %d hop count %d, timeline counted %d (%+v)", i, r.Task, r.Hops, l.hops, r)
			}
		case trace.OpLoss, trace.OpRetry:
			if l == nil || !l.open {
				t.Fatalf("record %d: task %d fault event without an open life (%+v)", i, r.Task, r)
			}
		}
	}
	if departs == 0 {
		t.Fatal("no completed lifecycles in the stream")
	}
	// The sampled departures are a subset of the run's; at 25% sampling
	// of thousands of departures both sides must be populated.
	if int64(departs) >= res.Departed {
		t.Fatalf("sampled departures %d >= total %d", departs, res.Departed)
	}
}

// TestTracedSteadyStateZeroAllocs extends the headline allocation
// budget to the tracing layer: steady-state rounds must allocate
// nothing both with tracing off (hists still maintained) and with
// sampling on and a broker attached (records are struct copies into a
// preallocated ring).
func TestTracedSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrating benchmark runs take ~1s each")
	}
	if raceEnabled {
		t.Skip("race instrumentation shrinks the calibrated iteration count, so one-time construction no longer amortises below 1 alloc/op")
	}
	g := graph.RandomRegular(256, 8, rng.NewSeeded(3))
	for _, tc := range []struct {
		name   string
		sample float64
	}{
		{"trace-off", 0},
		{"trace-sampled", 1.0 / 64},
	} {
		for _, workers := range []int{1, 2} {
			res := testing.Benchmark(func(b *testing.B) {
				broker := obs.NewBroker()
				broker.Subscribe(obs.SubOptions{Capacity: 1 << 16, Kinds: obs.Mask(obs.KindTrace)})
				cfg := Config{
					Graph:    g,
					Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
					Arrivals: Poisson{Rate: 0.8 * 256 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
					Service:  WeightProportional{Rate: 1},
					Tuner: &SelfTuner{Eps: 0.5, Steps: 2,
						Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
					Rounds:      b.N,
					Window:      1 << 30,
					Seed:        0x5eed,
					Workers:     workers,
					Obs:         broker,
					TraceSample: tc.sample,
				}
				b.ReportAllocs()
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
				broker.Close()
			})
			if allocs := res.AllocsPerOp(); allocs != 0 {
				t.Fatalf("%s workers=%d: steady-state round allocates %d times/op (%d B/op), want 0",
					tc.name, workers, allocs, res.AllocedBytesPerOp())
			}
		}
	}
}

// TestTraceCheckpointResume pins tracing across crash recovery: a run
// killed mid-flight and resumed from its last checkpoint must replay
// the exact trace-record and histogram-snapshot stream of the
// uninterrupted run — open timelines (arrival rounds, hop counts),
// histogram state and the provenance of messages parked in the delay
// wheel (their source and send round, which a late delivery's hop
// count, From and Latency come from) ride the snapshot.
func TestTraceCheckpointResume(t *testing.T) {
	const n = 200
	g := graph.RandomRegular(n, 8, rng.NewSeeded(21))
	traceKinds := obs.Mask(obs.KindTrace, obs.KindTraceHist, obs.KindCheckpoint)
	cases := []struct {
		name           string
		every, crashAt int
		build          func(workers int) Config
	}{
		{"lifecycle", 50, 170, func(workers int) Config { return lifecycleConfig(g, n, 5, workers) }},
		// Half of all migrations park in the wheel for up to 6 rounds, and
		// every task is traced, so the checkpoint holds a busy wheel.
		{"busy-wheel", 20, 75, func(workers int) Config {
			cfg := lifecycleConfig(g, n, 5, workers)
			cfg.Churn = Churn{}
			cfg.Faults = &faults.Plan{DelayProb: 0.5, DelayMax: 6}
			cfg.TraceSample = 1
			cfg.Rounds = 120
			return cfg
		}},
	}

	run := func(build func(int) Config, workers, every, crash int, snap []byte) (Result, []obs.Event, map[int][]byte, error) {
		cfg := build(workers)
		cfg.CheckpointEvery = every
		cfg.CrashAfterRound = crash
		broker := obs.NewBroker()
		cfg.Obs = broker
		sub := broker.Subscribe(obs.SubOptions{Capacity: 1 << 17, Kinds: traceKinds})
		snaps := map[int][]byte{}
		cfg.OnCheckpoint = func(round int, data []byte) error {
			snaps[round] = append([]byte(nil), data...)
			return nil
		}
		var res Result
		var err error
		if snap == nil {
			res, err = Run(cfg)
		} else {
			var eng *Engine
			eng, err = Resume(bytes.NewReader(snap), cfg)
			if err == nil {
				res, err = eng.Run()
				eng.Close()
			}
		}
		broker.Close()
		if n := sub.Dropped(); n > 0 {
			t.Fatalf("trace subscription dropped %d events", n)
		}
		return res, drainAll(sub), snaps, err
	}

	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			baseRes, baseEvs, baseSnaps, err := run(tc.build, workers, tc.every, 0, nil)
			if err != nil {
				t.Fatalf("%s workers %d baseline: %v", tc.name, workers, err)
			}
			_, crashEvs, crashSnaps, err := run(tc.build, workers, tc.every, tc.crashAt, nil)
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("%s workers %d: crash run returned %v, want ErrCrashed", tc.name, workers, err)
			}
			last := (tc.crashAt / tc.every) * tc.every
			snap := crashSnaps[last]
			if snap == nil {
				t.Fatalf("%s workers %d: no checkpoint for round %d", tc.name, workers, last)
			}
			resRes, resEvs, _, err := run(tc.build, workers, tc.every, 0, snap)
			if err != nil {
				t.Fatalf("%s workers %d resume: %v", tc.name, workers, err)
			}
			if !reflect.DeepEqual(resRes, baseRes) {
				t.Fatalf("%s workers %d: resumed Result (histograms included) diverges\ngot  %+v\nwant %+v",
					tc.name, workers, resRes, baseRes)
			}
			if !bytes.Equal(crashSnaps[last], baseSnaps[last]) {
				t.Fatalf("%s workers %d: checkpoint at round %d differs between baseline and crashed run", tc.name, workers, last)
			}
			stream := append(prefixThroughCheckpoint(t, crashEvs, last), resEvs...)
			requireSameEvents(t, tc.name+" trace stream", stream, baseEvs)
		}
	}
}
