package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	lb "repro"
	"repro/internal/dynamic"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// sim-steady and sim-layers: one op is one Engine.Step of the
// open-system engine on a 1,000-resource 16-regular expander,
// resource-controlled with the lazy walk, self-tuned thresholds and
// weight-proportional service. The benchmark generates the arrivals
// (ExternalArrivals): Poisson batches at ρ = 0.8 of Pareto(2, cap 20)
// weights. At 1k resources the working set stays near the per-core L2,
// which keeps runs steady; a 10k fleet spills into the shared L3.
//
// A run repeats a fixed-length engine life until the budget is spent:
// set-up (graph, engine, simWarm rounds to steady occupancy), simTimed
// timed rounds, then simRestarts checkpoint+resume cycles with one
// round after each. The horizon (Rounds) is exactly the rounds a life
// steps, simWarm+simTimed+simRestarts = 4099, because ValidateEvents
// cost grows with it. Every life of one seed must end in the same
// Result.
const (
	simRho      = 0.8
	paretoMean  = 1.95 // E[min(Pareto(1, 2), 20)] = 2 − 1/20
	simWarm     = 1024 // a multiple of the 64-round telemetry cadence
	simTimed    = 3072 // likewise, so phase reports cover exactly the timed rounds
	simRestarts = 3
	simHorizon  = simWarm + simTimed + simRestarts
	simMinLives = 3
	tuneEvery   = 5

	// sim-layers only.
	racks, zones  = 8, 2
	rackFirstDown = 20 // rack 0 goes down at round 20, 60, 100, …
	rackPeriod    = 40
	rackOutage    = 20 // … and returns 20 rounds after each failure
	ckptEvery     = 100
	traceSample   = 1.0 / 64
)

func runSimSteady(cfg config, tr *tracer) (*outcome, error) { return runSim(cfg, tr, false) }
func runSimLayers(cfg config, tr *tracer) (*outcome, error) { return runSim(cfg, tr, true) }

// arrivals holds every round's batch in one flat slice.
type arrivals struct {
	flat []float64
	off  []int
}

func (a *arrivals) batch(t int) []float64 { return a.flat[a.off[t]:a.off[t+1]] }

// genArrivals draws the batch sizes first, so the weights fill one
// exactly sized slice and leave no garbage to inflate peak RSS.
func genArrivals(seed uint64, rounds int) *arrivals {
	counts, weights := rng.NewSeeded(mix(seed, 1)), rng.NewSeeded(mix(seed, 2))
	lambda := simRho * expanderN / paretoMean
	a := &arrivals{off: make([]int, rounds+1)}
	for t := 0; t < rounds; t++ {
		a.off[t+1] = a.off[t] + counts.Poisson(lambda)
	}
	a.flat = make([]float64, a.off[rounds])
	for i := range a.flat {
		a.flat[i] = math.Min(weights.Pareto(1, paretoAlpha), paretoCap)
	}
	return a
}

// simLife is one engine life's scenario and its telemetry taps.
type simLife struct {
	sc       lb.DynamicScenario
	traceSub *obs.Subscription // sim-layers: the draining trace consumer
	phaseSub *obs.Subscription // traced pass: the engine's phase profile
	buf      []obs.Event
	records  int64 // trace records drained
	phases   []obs.Event
}

// fleet is the open-system fleet of sim-steady, sim-layers and
// serve-live, with arrivals pushed in from outside. Building it builds
// the graph, which belongs to each life's set-up.
func fleet(seed uint64, rounds, workers int) lb.DynamicScenario {
	return lb.DynamicScenario{
		Graph:    lb.ExpanderGraph(expanderN, expanderD, mix(seed, 3)),
		Protocol: lb.ResourceBased,
		LazyWalk: true,
		Seed:     mix(seed, 20),
		Workers:  workers,
		Rounds:   rounds,
		Arrivals: lb.ExternalArrivals(),
		Service:  lb.WeightProportionalService(1),
		// Tune rounds cost about twice an ordinary round; at one in
		// five they hold p90 inside their own mode instead of on the
		// edge between the two, where the default one in ten puts it.
		TunerEvery: tuneEvery,
	}
}

func newLife(cfg config, layers bool, tr *tracer, churn []lb.ChurnEvent) *simLife {
	l := &simLife{buf: make([]obs.Event, 0, 256), sc: fleet(cfg.seed, simHorizon, 1)}
	if layers {
		l.sc.Faults = &lb.FaultPlan{Loss: 0.01, DelayProb: 0.005, DelayMax: 4, DupProb: 0.001, Seed: mix(cfg.seed, 21)}
		l.sc.Churn = lb.ChurnSpec{Events: churn}
		l.sc.Rehome = lb.PowerOfDRehome(2)
		l.sc.TraceSample = traceSample
		l.sc.CheckpointEvery = ckptEvery
		l.sc.OnCheckpoint = func(int, []byte) error { return nil }
		l.traceSub = l.sc.Subscribe(lb.ObsSubOptions{Capacity: 1 << 10, Kinds: lb.ObsMask(lb.KindTrace)})
	}
	if tr != nil {
		l.phaseSub = l.sc.Subscribe(lb.ObsSubOptions{Capacity: 1 << 8, Kinds: lb.ObsMask(lb.KindPhase)})
	}
	return l
}

// drain empties the subscriptions between steps, outside the timed
// spans.
func (l *simLife) drain() {
	if l.traceSub != nil {
		for evs := l.traceSub.Poll(l.buf); len(evs) > 0; evs = l.traceSub.Poll(l.buf) {
			l.records += int64(len(evs))
		}
	}
	if l.phaseSub != nil {
		for evs := l.phaseSub.Poll(l.buf); len(evs) > 0; evs = l.phaseSub.Poll(l.buf) {
			l.phases = append(l.phases, evs...)
		}
	}
}

func rackChurn() ([]lb.ChurnEvent, error) {
	topo, err := lb.SynthTopology(expanderN, racks, zones)
	if err != nil {
		return nil, err
	}
	rack0 := topo.RackList(0, nil)
	return []lb.ChurnEvent{
		{Round: rackFirstDown, Every: rackPeriod, DownList: rack0},
		{Round: rackFirstDown + rackOutage, Every: rackPeriod, UpList: rack0},
	}, nil
}

func runSim(cfg config, tr *tracer, layers bool) (*outcome, error) {
	// Both workloads run one worker. Set-ups, ops and restarts are
	// timed on the process CPU clock; the thread stays locked for the
	// blocking check.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var timer cpuTimer
	in := genArrivals(mix(cfg.seed, 22), simHorizon)
	var churn []lb.ChurnEvent
	if layers {
		var err error
		if churn, err = rackChurn(); err != nil {
			return nil, err
		}
	}
	m := map[string]float64{}
	o := &outcome{metrics: m}
	var (
		setups, lat, rates, rs, peaks []float64
		cpus                          []float64
		ckpt, resume, decode          []float64
		ckptBytes                     int
		life                          *simLife
		res                           lb.DynamicResult
		snap                          bytes.Buffer
		op                            int64
	)
	lat = make([]float64, 0, 128*simTimed)
	deadline := time.Now().Add(cfg.budget)
	for n := 0; n < simMinLives || time.Now().Before(deadline); n++ {
		// Collect the previous life's garbage outside the timers; the
		// engine allocates nothing in steady state, so no collection
		// runs inside the timed rounds.
		life = nil
		runtime.GC()
		timer.start()
		life = newLife(cfg, layers, tr, churn)
		eng, err := life.sc.Engine()
		if err != nil {
			return nil, err
		}
		for t := 0; t < simWarm; t++ {
			if _, err := eng.Step(lb.StepInput{Weights: in.batch(t)}); err != nil {
				eng.Close()
				return nil, err
			}
			life.drain()
		}
		setups = append(setups, timer.stop().Seconds())
		runtime.GC()

		var busy time.Duration
		if err := resetPeakRSS(); err != nil {
			eng.Close()
			return nil, err
		}
		timer.start()
		for t := simWarm; t < simWarm+simTimed; t++ {
			id := tr.begin("dynamic.step", -1, op)
			c0 := cpuClock()
			_, err := eng.Step(lb.StepInput{Weights: in.batch(t)})
			d := cpuClock() - c0
			tr.end(id)
			o.attempted++
			op++
			if err != nil {
				o.failed++
				eng.Close()
				return o, err
			}
			busy += d
			lat = append(lat, ms(d))
			life.drain()
		}
		cpus = append(cpus, ms(timer.stop())/simTimed)
		rates = append(rates, simTimed/busy.Seconds())
		rss, err := selfRSS()
		if err != nil {
			eng.Close()
			return nil, err
		}
		peaks = append(peaks, rss)

		// Restart: Engine.Checkpoint + DynamicScenario.Resume of the
		// warm engine, then one round on the resumed engine. Each starts
		// from a collected heap, like set-ups and timed phases: without
		// that, restart_s moved ±20% with where the collector stood.
		for k := 0; k < simRestarts; k++ {
			snap.Reset()
			runtime.GC()
			timer.start()
			id := tr.begin("snapshot.checkpoint", -1, op)
			err := eng.Checkpoint(&snap)
			tr.end(id)
			if err != nil {
				eng.Close()
				return nil, err
			}
			r1 := timer.now()
			id = tr.begin("dynamic.resume", -1, op)
			next, err := life.sc.Resume(bytes.NewReader(snap.Bytes()))
			tr.end(id)
			d := timer.stop()
			eng.Close()
			if err != nil {
				return nil, err
			}
			eng = next
			rs = append(rs, d.Seconds())
			ckpt = append(ckpt, ms(r1-timer.cpu0))
			resume = append(resume, ms(timer.cpu0+d-r1))
			if tr != nil {
				ckptBytes = snap.Len()
				d0 := time.Now()
				if _, err := snapshot.NewDecoder(snap.Bytes()); err != nil {
					eng.Close()
					return nil, checkf("checkpoint does not decode: %v", err)
				}
				decode = append(decode, ms(time.Since(d0)))
			}
			if _, err := eng.Step(lb.StepInput{Weights: in.batch(simWarm + simTimed + k)}); err != nil {
				eng.Close()
				return nil, err
			}
			life.drain()
		}
		// Finish runs the engine's weight-conservation check.
		res, err = eng.Finish()
		eng.Close()
		if err != nil {
			return o, checkf("life %d: %v", n, err)
		}
		d := resultDigest(res)
		if o.digest == "" {
			o.digest = d
		} else if d != o.digest {
			return o, checkf("life %d of seed %d ended in Result %s, the first life in %s", n, cfg.seed, d, o.digest)
		}
	}
	if err := timer.check(); err != nil {
		return o, err
	}
	m["setup_s"] = median(setups)
	m["ops_per_s"] = median(rates)
	o.opsPerSec = m["ops_per_s"]
	m["cpu_ms_per_op"] = median(cpus)
	m["restart_s"] = median(rs)
	m["peak_rss_mb"] = median(peaks)
	if err := latencyMetrics(lat, m); err != nil {
		return nil, err
	}
	if tr == nil {
		return o, nil
	}

	rounds := float64(res.Rounds)
	m["dynamic.arrivals_per_round"] = float64(res.Arrived) / rounds
	m["dynamic.departures_per_round"] = float64(res.Departed) / rounds
	m["dynamic.migrations_per_round"] = float64(res.Migrations) / rounds
	m["faults.lost_per_kround"] = 1000 * float64(res.Lost) / rounds
	m["faults.timeouts_per_kround"] = 1000 * float64(res.Timeouts) / rounds
	m["faults.retry_frac"] = ratio(res.Retries, res.Migrations)
	m["faults.dedup_frac"] = ratio(res.Deduped, res.Duplicated)
	var evac int64
	for _, r := range res.Recoveries {
		evac += r.EvacTasks
	}
	m["recovery.evac_tasks_per_failure"] = ratio(evac, int64(len(res.Recoveries)))
	if d := res.MeanDrainRounds(); !math.IsNaN(d) {
		m["recovery.drain_rounds"] = d
	}
	m["trace.records_per_round"] = float64(life.records) / rounds
	var dropped uint64
	for _, s := range []*obs.Subscription{life.traceSub, life.phaseSub} {
		if s != nil {
			dropped += s.Dropped()
		}
	}
	m["obs.dropped_frac"] = float64(dropped) / float64(life.sc.Obs.Published())
	m["snapshot.checkpoint_ms"] = median(ckpt)
	m["snapshot.bytes"] = float64(ckptBytes)
	m["snapshot.decode_ms"] = median(decode)
	m["dynamic.resume_ms"] = median(resume)
	var val []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := dynamic.ValidateEvents(churn, expanderN, simHorizon); err != nil {
			return nil, err
		}
		val = append(val, ms(time.Since(t0)))
	}
	m["dynamic.validate_ms"] = median(val)
	if err := phaseMetrics(life.phases, tr.selfByName("dynamic.step"), m); err != nil {
		return o, err
	}
	probeLayers(cfg.seed, tr, m)
	return o, nil
}

// phaseProfile sums the engine's own phase timers (obs.KindPhase,
// reported every 64 rounds per shard, plus shard -1 for the sequential
// phases) over the reports for rounds (warm, warm+timed]. A sharded
// phase costs a round its slowest shard.
type phaseProfile struct {
	phase                 [obs.NumPhases]float64 // ns, sequential + slowest shard
	wait, maxSum, meanSum float64                // ns, sharded phases
}

func profile(events []obs.Event, warm, timed int) phaseProfile {
	type window struct {
		seq, max, sum [obs.NumPhases]int64
		shards        int
	}
	byRound := map[int]*window{}
	for _, ev := range events {
		if ev.Kind != obs.KindPhase || ev.Round <= warm || ev.Round > warm+timed {
			continue
		}
		w := byRound[ev.Round]
		if w == nil {
			w = &window{}
			byRound[ev.Round] = w
		}
		if ev.Phase.Shard < 0 {
			w.seq = ev.Phase.Nanos
			continue
		}
		w.shards++
		for p, ns := range ev.Phase.Nanos {
			w.sum[p] += ns
			w.max[p] = max(w.max[p], ns)
		}
	}
	var pp phaseProfile
	for _, w := range byRound {
		for p := range pp.phase {
			pp.phase[p] += float64(w.seq[p] + w.max[p])
			if w.shards > 0 {
				mean := float64(w.sum[p]) / float64(w.shards)
				pp.wait += float64(w.max[p]) - mean
				pp.maxSum += float64(w.max[p])
				pp.meanSum += mean
			}
		}
	}
	return pp
}

// parMetrics sets par.wait_us, the time per round the slowest shard
// adds over an even split, and par.imbalance, the slowest shard's busy
// time over the mean.
func (pp phaseProfile) parMetrics(rounds int, m map[string]float64) {
	m["par.wait_us"] = pp.wait / 1e3 / float64(rounds)
	if pp.meanSum > 0 {
		m["par.imbalance"] = pp.maxSum / pp.meanSum
	}
}

// phaseMetrics splits the mean Engine.Step span of the last life's
// timed rounds into the engine's phases; what the step spends outside
// them is dynamic.other_us.
func phaseMetrics(events []obs.Event, stepUS []float64, m map[string]float64) error {
	names := map[obs.PhaseID]string{
		obs.PhaseArrivals: "dynamic.arrivals_us",
		obs.PhaseService:  "dynamic.service_us",
		obs.PhaseTune:     "dynamic.tune_us",
		obs.PhasePropose:  "dynamic.propose_us",
		obs.PhaseDeliver:  "dynamic.deliver_us",
		obs.PhaseEvac:     "dynamic.evacuate_us",
	}
	pp := profile(events, simWarm, simTimed)
	step := 0.0
	if len(stepUS) > 0 {
		step = sum(stepUS[len(stepUS)-simTimed:]) / simTimed
	}
	other := step
	for p, name := range names {
		m[name] = pp.phase[p] / 1e3 / simTimed
		other -= m[name]
	}
	m["dynamic.step_us"] = step
	m["dynamic.other_us"] = other
	pp.parMetrics(simTimed, m)
	// The phase timers run inside the step, so they cannot add up to
	// more than the span around it.
	if other < 0 {
		return checkf("the engine's phases add up to %.1f us a round, more than the %.1f us Engine.Step span", step-other, step)
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// resultDigest fingerprints the Result counters the engine promises
// to reproduce bit for bit.
func resultDigest(r lb.DynamicResult) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %x %x %d %x %d %x %d %d %d %d %d %d %d %d %d %d %d %x",
		r.Rounds, r.Arrived, r.Departed, math.Float64bits(r.ArrivedWeight), math.Float64bits(r.DepartedWeight),
		r.Migrations, math.Float64bits(r.MovedWeight), r.Rehomed, math.Float64bits(r.RehomedWeight),
		r.Downs, r.Ups, r.Lost, r.Delayed, r.Duplicated, r.Deduped, r.Retries, r.Timeouts,
		r.Bounced, len(r.Recoveries), r.FinalInFlight, math.Float64bits(r.FinalWeight))
	for _, hist := range []any{r.Sojourn, r.Hops, r.RetryLat} {
		fmt.Fprintf(h, " %v", hist)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
