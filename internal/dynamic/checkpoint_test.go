package dynamic

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// detKinds is the event-kind set the crash/resume golden suite holds
// byte-identical: every kind whose payload is part of the determinism
// contract. Excluded are the wall-clock kinds (KindPhase, KindShardCost)
// and the shard-bound-dependent ones (KindShardWindow, KindLanes) —
// shard boundaries rebalance on measured cost and are not snapshot
// state.
var detKinds = obs.Mask(obs.KindWindow, obs.KindDomainWindow,
	obs.KindRecoveryStart, obs.KindRecoveryEnd, obs.KindFaults,
	obs.KindQuarantine, obs.KindAlert, obs.KindCheckpoint,
	obs.KindTraceHist)

// ckptCapture is one observed run: its Result, the deterministic-kind
// event stream, and every checkpoint it wrote (bytes copied).
type ckptCapture struct {
	res   Result
	err   error
	evs   []obs.Event
	snaps map[int][]byte
}

// runCkpt executes cfg — from scratch when snap is nil, resumed from
// snap otherwise — with a broker attached and every checkpoint
// captured.
func runCkpt(t *testing.T, cfg Config, snap []byte) ckptCapture {
	t.Helper()
	broker := obs.NewBroker()
	cfg.Obs = broker
	sub := broker.Subscribe(obs.SubOptions{Capacity: 1 << 15, Kinds: detKinds})
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
		t.Fatalf("subscription dropped %d events; raise the test ring capacity", n)
	}
	return ckptCapture{res: res, err: err, evs: drainAll(sub), snaps: snaps}
}

// prefixThroughCheckpoint cuts a crashed run's event stream directly
// after the checkpoint marker for `round` — the exact prefix the
// resumed run's stream continues.
func prefixThroughCheckpoint(t *testing.T, evs []obs.Event, round int) []obs.Event {
	t.Helper()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == obs.KindCheckpoint && evs[i].Round == round {
			return evs[:i+1]
		}
	}
	t.Fatalf("no checkpoint event for round %d in the crashed stream", round)
	return nil
}

// requireSameEvents fails with the first diverging event.
func requireSameEvents(t *testing.T, label string, got, want []obs.Event) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: event %d diverges\ngot  %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
	t.Fatalf("%s: event stream length %d, want %d", label, len(got), len(want))
}

// TestCheckpointCrashResumeGolden is the headline crash-recovery
// contract: for seeds {1, 2, 3}, workers {1, 2, 4, 8} and three fault
// regimes (fault-free churn, message loss with retry/timeout, scripted
// partition + flapping quarantine), a run killed at a randomized round
// and resumed from its last checkpoint must finish byte-identical to
// the uninterrupted run — same Result, same deterministic-kind event
// stream (sequence numbers included), and every post-resume checkpoint
// byte-for-byte equal to the uninterrupted run's checkpoint at the
// same round.
func TestCheckpointCrashResumeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("crash/resume matrix is not short")
	}
	g := graph.RandomRegular(200, 8, rng.NewSeeded(7))
	proto := func() core.Protocol {
		return core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))}
	}
	const rounds, window, every = 160, 40, 30
	base := func(seed uint64, workers int) Config {
		cfg := goldenConfig(200, proto(), g,
			Churn{LeaveProb: 0.3, JoinProb: 0.3, MinUp: 100}, seed, workers)
		cfg.Rounds = rounds
		cfg.Window = window
		cfg.CheckpointEvery = every
		cfg.Domains = testDomains(200)
		cfg.AlertBudget = 0.2
		cfg.AlertWindows = 2
		return cfg
	}
	quarter := make([]int, 50)
	for i := range quarter {
		quarter[i] = i
	}
	cases := []struct {
		name  string
		build func(seed uint64, workers int) Config
	}{
		{"churn", base},
		{"loss-retry", func(seed uint64, workers int) Config {
			cfg := base(seed, workers)
			cfg.Faults = &faults.Plan{Loss: 0.2, RetryBase: 1, RetryCap: 4, Timeout: 12}
			return cfg
		}},
		{"partition-quarantine", func(seed uint64, workers int) Config {
			cfg := base(seed, workers)
			cfg.Faults = &faults.Plan{
				Loss:       0.05,
				RetryBase:  1,
				RetryCap:   4,
				Timeout:    12,
				Partitions: []faults.Partition{{Start: 50, End: 120, Members: quarter}},
			}
			cfg.Quarantine = Quarantine{Flaps: 2, Window: 40, Cooloff: 25}
			return cfg
		}},
	}
	crashRng := rng.NewSeeded(0xC4A54)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []uint64{1, 2, 3} {
				var refRes Result
				for _, workers := range []int{1, 2, 4, 8} {
					baseline := runCkpt(t, tc.build(seed, workers), nil)
					if baseline.err != nil {
						t.Fatalf("seed %d workers %d baseline: %v", seed, workers, baseline.err)
					}
					if workers == 1 {
						refRes = baseline.res
					} else if !reflect.DeepEqual(baseline.res, refRes) {
						t.Fatalf("seed %d: baseline diverges at workers=%d", seed, workers)
					}

					// Kill a second run at a randomized round past the first
					// checkpoint.
					crashAt := every + crashRng.Intn(rounds-every)
					ccfg := tc.build(seed, workers)
					ccfg.CrashAfterRound = crashAt
					crashed := runCkpt(t, ccfg, nil)
					if !errors.Is(crashed.err, ErrCrashed) {
						t.Fatalf("seed %d workers %d: crash run returned %v, want ErrCrashed", seed, workers, crashed.err)
					}
					for r, b := range crashed.snaps {
						if !bytes.Equal(b, baseline.snaps[r]) {
							t.Fatalf("seed %d workers %d: checkpoint at round %d differs between baseline and crashed run", seed, workers, r)
						}
					}

					last := (crashAt / every) * every
					snap := crashed.snaps[last]
					if snap == nil {
						t.Fatalf("seed %d workers %d: crashed at %d with no checkpoint for round %d", seed, workers, crashAt, last)
					}
					resumed := runCkpt(t, tc.build(seed, workers), snap)
					if resumed.err != nil {
						t.Fatalf("seed %d workers %d: resume from round %d: %v", seed, workers, last, resumed.err)
					}
					if !reflect.DeepEqual(resumed.res, baseline.res) {
						t.Fatalf("seed %d workers %d: resumed Result diverges (crash %d, resume %d)\ngot  %+v\nwant %+v",
							seed, workers, crashAt, last, resumed.res, baseline.res)
					}
					stream := append(prefixThroughCheckpoint(t, crashed.evs, last), resumed.evs...)
					requireSameEvents(t, tc.name, stream, baseline.evs)
					for r, b := range resumed.snaps {
						if r <= last {
							t.Fatalf("seed %d workers %d: resumed run rewrote checkpoint %d", seed, workers, r)
						}
						if !bytes.Equal(b, baseline.snaps[r]) {
							t.Fatalf("seed %d workers %d: post-resume checkpoint at round %d differs from baseline", seed, workers, r)
						}
					}
				}
			}
		})
	}
}

// TestResumeAcrossWorkerCounts pins worker-count independence of the
// snapshot itself: a checkpoint written by a 4-worker run resumes at 1,
// 2 and 8 workers and still reproduces the sequential baseline Result.
func TestResumeAcrossWorkerCounts(t *testing.T) {
	g := graph.RandomRegular(200, 8, rng.NewSeeded(7))
	const rounds, every, crashAt = 160, 30, 97
	build := func(workers int) Config {
		cfg := goldenConfig(200, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			g, Churn{LeaveProb: 0.3, JoinProb: 0.3, MinUp: 100}, 5, workers)
		cfg.Rounds = rounds
		cfg.Window = 40
		cfg.CheckpointEvery = every
		cfg.Faults = &faults.Plan{Loss: 0.1, RetryBase: 1, RetryCap: 4, Timeout: 10}
		cfg.Domains = testDomains(200)
		cfg.AlertBudget = 0.2
		cfg.AlertWindows = 2
		return cfg
	}
	baseline := runCkpt(t, build(1), nil)
	if baseline.err != nil {
		t.Fatal(baseline.err)
	}
	ccfg := build(4)
	ccfg.CrashAfterRound = crashAt
	crashed := runCkpt(t, ccfg, nil)
	if !errors.Is(crashed.err, ErrCrashed) {
		t.Fatalf("crash run returned %v, want ErrCrashed", crashed.err)
	}
	snap := crashed.snaps[90]
	if snap == nil {
		t.Fatal("no checkpoint at round 90")
	}
	for _, workers := range []int{1, 2, 8} {
		resumed := runCkpt(t, build(workers), snap)
		if resumed.err != nil {
			t.Fatalf("resume at workers=%d: %v", workers, resumed.err)
		}
		if !reflect.DeepEqual(resumed.res, baseline.res) {
			t.Fatalf("4-worker checkpoint resumed at workers=%d diverges from the sequential baseline", workers)
		}
	}
}

// smallCkptConfig is the corruption-matrix workload: tiny, fast, no
// broker (the decoder paths under test are config-independent).
func smallCkptConfig() Config {
	g := graph.Complete(50)
	return Config{
		Graph:    g,
		Protocol: core.UserControlled{Alpha: 1},
		Arrivals: Poisson{Rate: 10, Weights: task.Pareto{Alpha: 2, Cap: 20}},
		Service:  WeightProportional{Rate: 1},
		Tuner: &SelfTuner{Eps: 0.5, Steps: 2,
			Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Churn:  Churn{LeaveProb: 0.2, JoinProb: 0.2, MinUp: 25},
		Rounds: 40,
		Window: 20,
		Seed:   9,
	}
}

// writeSmallSnapshot produces one valid checkpoint of the small
// workload (written at round 20).
func writeSmallSnapshot(t *testing.T) []byte {
	t.Helper()
	cfg := smallCkptConfig()
	cfg.CheckpointEvery = 20
	cfg.CrashAfterRound = 25
	var snap []byte
	cfg.OnCheckpoint = func(round int, data []byte) error {
		if round == 20 {
			snap = append([]byte(nil), data...)
		}
		return nil
	}
	if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash run returned %v, want ErrCrashed", err)
	}
	if snap == nil {
		t.Fatal("no checkpoint written at round 20")
	}
	return snap
}

// TestResumeRejectsCorruptSnapshots drives the decoder through the
// corruption matrix: truncations at every region, single-bit flips
// across the whole file, and config mismatches must all fail restore
// with an error — never load silently, never panic.
func TestResumeRejectsCorruptSnapshots(t *testing.T) {
	snap := writeSmallSnapshot(t)

	// Sanity: the pristine snapshot restores and finishes identically.
	full, err := Run(smallCkptConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Resume(bytes.NewReader(snap), smallCkptConfig())
	if err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	res, err := eng.Run()
	eng.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatal("pristine resume diverges from the uninterrupted run")
	}

	for _, cut := range []int{0, 1, 7, 8, len(snap) / 4, len(snap) / 2, len(snap) - 9, len(snap) - 1} {
		if _, err := Resume(bytes.NewReader(snap[:cut]), smallCkptConfig()); err == nil {
			t.Fatalf("snapshot truncated to %d of %d bytes loaded silently", cut, len(snap))
		}
	}

	for off := 0; off < len(snap); off += 41 {
		mut := append([]byte(nil), snap...)
		mut[off] ^= 0x10
		if _, err := Resume(bytes.NewReader(mut), smallCkptConfig()); err == nil {
			t.Fatalf("bit flip at offset %d loaded silently", off)
		}
	}

	mismatches := []struct {
		name     string
		mutate   func(*Config)
		fragment string
	}{
		{"seed", func(c *Config) { c.Seed = 999 }, "seed"},
		{"rounds", func(c *Config) { c.Rounds = 80 }, "horizon"},
		{"window", func(c *Config) { c.Window = 10 }, "window"},
		{"faults", func(c *Config) {
			c.Faults = &faults.Plan{Loss: 0.1, RetryBase: 1, RetryCap: 2, Timeout: 8}
		}, "fault-injector"},
		{"quarantine", func(c *Config) {
			c.Quarantine = Quarantine{Flaps: 2, Window: 10, Cooloff: 10}
		}, "quarantine"},
		{"tuner", func(c *Config) { c.Tuner = &OracleTuner{Eps: 0.5} }, "tuner"},
	}
	for _, m := range mismatches {
		cfg := smallCkptConfig()
		m.mutate(&cfg)
		_, err := Resume(bytes.NewReader(snap), cfg)
		if err == nil {
			t.Fatalf("%s mismatch loaded silently", m.name)
		}
		if !strings.Contains(err.Error(), m.fragment) {
			t.Fatalf("%s mismatch error %q does not mention %q", m.name, err, m.fragment)
		}
	}
}

// TestManualEngineCheckpoint pins the explicit Engine API: a snapshot
// taken before the first round resumes into the full run, bit for bit.
func TestManualEngineCheckpoint(t *testing.T) {
	full, err := Run(smallCkptConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(smallCkptConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	resumed, err := Resume(&buf, smallCkptConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := resumed.Run()
	resumed.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatal("round-0 checkpoint resume diverges from the plain run")
	}
}

// TestCheckpointBeforeFirstDeparture: a task set that has never
// removed a task records no removal flags, and a checkpoint of it must
// still resume. The snapshot is taken before round 0 of a run that
// starts with four tasks and admits none; the resumed engine must
// checkpoint to the same bytes and finish in the plain run's Result.
func TestCheckpointBeforeFirstDeparture(t *testing.T) {
	cfg := func() Config {
		g := graph.Complete(20)
		return Config{
			Graph:          g,
			Protocol:       core.UserControlled{Alpha: 1},
			Arrivals:       None{},
			Service:        WeightProportional{Rate: 1},
			Tuner:          &OracleTuner{Eps: 0.5},
			Rounds:         30,
			Window:         10,
			Seed:           3,
			InitialWeights: []float64{3, 4, 5, 6},
		}
	}
	full, err := Run(cfg())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg())
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	resumed, err := Resume(bytes.NewReader(snap.Bytes()), cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	var again bytes.Buffer
	if err := resumed.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Fatal("the resumed engine checkpoints to other bytes than the snapshot it resumed")
	}
	res, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, full) {
		t.Fatal("resume before the first departure diverges from the plain run")
	}
}

// shortLen is a reader whose Len reports fewer bytes than it holds.
type shortLen struct{ *bytes.Reader }

func (r shortLen) Len() int { return r.Reader.Len() / 3 }

// TestResumedEngineOwnsItsState: Resume reads the snapshot into a
// buffer of its own, sized from what the reader reports, and the
// resumed engine then encodes its checkpoints into that buffer, so
// nothing the engine keeps may alias the caller's bytes or the buffer.
// The snapshot is resumed from a bytes.Reader and an *os.File, which
// report their length, from an iotest.OneByteReader, which reports
// none, and from a reader whose Len is too small. Right after each
// Resume the caller's bytes are overwritten and a checkpoint is taken
// at once; that checkpoint must equal the one the uninterrupted run
// takes at the same boundary, and the rest of the run its Result and
// its event stream.
func TestResumedEngineOwnsItsState(t *testing.T) {
	const n, rounds, at = 200, 120, 70
	g := graph.RandomRegular(n, 8, rng.NewSeeded(7))
	batches := make([][]float64, rounds)
	wr := rng.NewSeeded(11)
	for r := range batches {
		batches[r] = task.Pareto{Alpha: 2, Cap: 20}.AppendWeights(nil, wr.Poisson(0.8*n/paretoMean), wr)
	}
	build := func(broker *obs.Broker) Config {
		cfg := goldenConfig(n, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			g, Churn{LeaveProb: 0.3, JoinProb: 0.3, MinUp: 100}, 4, 2)
		cfg.Arrivals = External{}
		cfg.Rounds = rounds
		cfg.Window = 40
		cfg.CheckpointEvery = 30
		cfg.Faults = &faults.Plan{Loss: 0.1, RetryBase: 1, RetryCap: 4, Timeout: 10}
		cfg.Obs = broker
		return cfg
	}
	finish := func(t *testing.T, eng *Engine, broker *obs.Broker, sub *obs.Subscription) (Result, []obs.Event) {
		t.Helper()
		for r := eng.NextRound(); r < rounds; r++ {
			if _, err := eng.Step(StepInput{Weights: batches[r]}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := eng.Finish()
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
		broker.Close()
		return res, drainAll(sub)
	}

	// The uninterrupted run takes two checkpoints back to back at the
	// boundary: the snapshot, and the one a resumed engine takes at once.
	broker := obs.NewBroker()
	sub := broker.Subscribe(obs.SubOptions{Capacity: 1 << 15, Kinds: detKinds})
	eng, err := NewEngine(build(broker))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < at; r++ {
		if _, err := eng.Step(StepInput{Weights: batches[r]}); err != nil {
			t.Fatal(err)
		}
	}
	var snap, again bytes.Buffer
	if err := eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if err := eng.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	want, wantEvs := finish(t, eng, broker, sub)
	// The resumed stream starts at the second marker.
	prefix := prefixThroughCheckpoint(t, wantEvs, at)
	prefix = prefix[:len(prefix)-1]

	path := filepath.Join(t.TempDir(), "ckpt.snap")
	cases := []struct {
		name string
		open func(t *testing.T, b []byte) io.Reader
	}{
		{"bytes.Reader", func(_ *testing.T, b []byte) io.Reader { return bytes.NewReader(b) }},
		{"os.File", func(t *testing.T, b []byte) io.Reader {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}},
		{"OneByteReader", func(_ *testing.T, b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
		{"short Len", func(_ *testing.T, b []byte) io.Reader { return shortLen{bytes.NewReader(b)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := bytes.Clone(snap.Bytes())
			broker := obs.NewBroker()
			sub := broker.Subscribe(obs.SubOptions{Capacity: 1 << 15, Kinds: detKinds})
			eng, err := Resume(tc.open(t, b), build(broker))
			if err != nil {
				t.Fatal(err)
			}
			// Overwrite what the caller holds: the slice, and the file
			// the os.File case read.
			for i := range b {
				b[i] = 0xa5
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := eng.Checkpoint(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), again.Bytes()) {
				t.Fatal("checkpoint taken right after Resume differs from the uninterrupted run's")
			}
			res, evs := finish(t, eng, broker, sub)
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("resumed Result diverges\ngot  %+v\nwant %+v", res, want)
			}
			requireSameEvents(t, tc.name, append(append([]obs.Event(nil), prefix...), evs...), wantEvs)
		})
	}
}

// TestResumeSteadyStateZeroAllocs extends the zero-alloc contract to
// the resumed engine with live cadence checkpointing: past restore and
// encoder warm-up, steady-state rounds (checkpoint encoding included)
// allocate nothing.
func TestResumeSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation benchmark is not short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := graph.RandomRegular(256, 8, rng.NewSeeded(3))
	res := testing.Benchmark(func(b *testing.B) {
		const warm = 64
		build := func() Config {
			return Config{
				Graph:    g,
				Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Arrivals: Poisson{Rate: 0.8 * 256 / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
				Service:  WeightProportional{Rate: 1},
				Tuner: &SelfTuner{Eps: 0.5, Steps: 2,
					Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
				Rounds:          b.N + warm,
				Window:          1 << 30,
				Seed:            0x5eed,
				CheckpointEvery: warm,
			}
		}
		cfg := build()
		cfg.CrashAfterRound = warm
		var snap []byte
		cfg.OnCheckpoint = func(round int, data []byte) error {
			snap = append(snap[:0], data...)
			return nil
		}
		if _, err := Run(cfg); !errors.Is(err, ErrCrashed) {
			b.Fatalf("warm run returned %v, want ErrCrashed", err)
		}
		eng, err := Resume(bytes.NewReader(snap), build())
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	})
	if allocs := res.AllocsPerOp(); allocs != 0 {
		t.Fatalf("resumed steady-state round allocates %d times/op (%d B/op), want 0",
			allocs, res.AllocedBytesPerOp())
	}
}

// simFleetConfig is the fleet of perfbench's sim workloads: 1,000
// resources of a 16-regular expander, resource-controlled with the
// lazy walk, thresholds self-tuned every fifth round, weight-
// proportional service at one worker, and arrivals pushed in through
// Step.
func simFleetConfig(g *graph.Graph, rounds int) Config {
	tuner := NewSelfTuner(walk.NewLazy(walk.NewMaxDegree(g)), 0.5)
	tuner.Every = 5
	return Config{
		Graph:    g,
		Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
		Arrivals: External{},
		Service:  WeightProportional{Rate: 1},
		Tuner:    tuner,
		Rounds:   rounds,
		Seed:     20,
		Workers:  1,
	}
}

// TestResumeMallocs counts exactly, with runtime.MemStats.Mallocs, the
// heap allocations of a restart of the 1k sim fleet: the Resume, a
// checkpoint taken at once, and the 64 rounds after them. A restored
// fleet's stacks share one arena with free slots above each stack, and
// its first checkpoint encodes into the buffer Resume read, so none of
// the three pays one allocation per stack, and the rounds after the
// restart do not regrow every stack the Resume left without room.
// Each count is the least of three restarts, so a stray allocation of
// the runtime cannot fail it.
func TestResumeMallocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const warm, after = 1024, 64
	g := graph.RandomRegular(1000, 16, rng.NewSeeded(3))
	wr := rng.NewSeeded(1)
	batches := make([][]float64, warm+after)
	for r := range batches {
		batches[r] = task.Pareto{Alpha: 2, Cap: 20}.AppendWeights(nil, wr.Poisson(0.8*1000/paretoMean), wr)
	}
	step := func(eng *Engine, to int) {
		for r := eng.NextRound(); r < to; r++ {
			if _, err := eng.Step(StepInput{Weights: batches[r]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng, err := NewEngine(simFleetConfig(g, warm+after))
	if err != nil {
		t.Fatal(err)
	}
	step(eng, warm)
	var snap bytes.Buffer
	if err := eng.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	resume, ckpt, rounds := uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64)
	for rep := 0; rep < 3; rep++ {
		cfg := simFleetConfig(g, warm+after)
		runtime.GC()
		m0 := mallocs()
		eng, err := Resume(bytes.NewReader(snap.Bytes()), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m1 := mallocs()
		if err := eng.Checkpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
		m2 := mallocs()
		step(eng, warm+after)
		m3 := mallocs()
		eng.Close()
		resume, ckpt, rounds = min(resume, m1-m0), min(ckpt, m2-m1), min(rounds, m3-m2)
	}
	t.Logf("%d-byte snapshot: Resume %d mallocs, checkpoint at once %d, next %d rounds %d", snap.Len(), resume, ckpt, after, rounds)
	if resume > 250 || ckpt > 0 || rounds > 300 {
		t.Fatalf("restart allocates %d (Resume) + %d (checkpoint) + %d (%d rounds) times, want at most 250 + 0 + 300",
			resume, ckpt, rounds, after)
	}
}

// TestResumeRejectsSpentCrashDrill pins the Resume-side guard for the
// mutually-exclusive resume + crash-drill combination: a snapshot at or
// past Config.CrashAfterRound must be rejected with a message saying
// the scripted crash can never fire, while a drill still ahead of the
// snapshot round stays allowed.
func TestResumeRejectsSpentCrashDrill(t *testing.T) {
	snap := writeSmallSnapshot(t) // captures round 20 of a 40-round run
	cases := []struct {
		name    string
		crashAt int
		wantErr string // "" = must resume cleanly
	}{
		{"crash round already passed", 10,
			"dynamic: snapshot resumes at round 20, at or past Config.CrashAfterRound 10 — the scripted crash can never fire; drop CrashAfterRound to resume"},
		{"crash round equals snapshot round", 20,
			"dynamic: snapshot resumes at round 20, at or past Config.CrashAfterRound 20 — the scripted crash can never fire; drop CrashAfterRound to resume"},
		{"crash round still ahead", 30, ""},
		{"no crash drill", 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCkptConfig()
			cfg.CrashAfterRound = tc.crashAt
			eng, err := Resume(bytes.NewReader(snap), cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Resume: %v", err)
				}
				eng.Close()
				return
			}
			if err == nil {
				eng.Close()
				t.Fatalf("Resume accepted a spent crash drill (CrashAfterRound=%d)", tc.crashAt)
			}
			if err.Error() != tc.wantErr {
				t.Fatalf("error = %q, want %q", err, tc.wantErr)
			}
		})
	}
}
