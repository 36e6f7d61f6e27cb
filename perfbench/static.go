package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	lb "repro"
)

// paper-static: the paper's Section 7 experiments. One op is a trial
// pair of Scenario.Run calls, all tasks starting on resource 0:
//   - Figure 1: user-controlled on K_1000, W = 10,000 made of one task
//     of weight 50 and 9,950 unit tasks, ε = 0.2;
//   - Theorem 3: resource-controlled with the lazy walk on the 32×32
//     torus, Pareto(2, cap 20) weights, ε = 0.5.
//
// The op cycles through staticCycle trial seeds derived from the
// workload seed, so every trial recurs and its round counts must
// repeat exactly.
const (
	fig1M          = 9951
	fig1Heavy      = 50
	fig1Eps        = 0.2
	thm3M          = 1500 // sized so the torus half costs about as much as the K_1000 half
	thm3Eps        = 0.5
	paretoAlpha    = 2
	paretoCap      = 20
	staticCycle    = 16
	staticSetups   = 5
	warmPairs      = 2
	staticRestarts = 5
)

type trial struct {
	userSeed, resSeed uint64
	resWeights        []float64
	// Filled by the check pass: the counts every later run of this
	// trial must repeat.
	userRounds, resRounds int
	userMoves, resMoves   int64
}

type staticRun struct {
	kn, torus   *lb.Graph
	userWeights []float64
	trials      []trial
	tr          *tracer
}

func runPaperStatic(cfg config, tr *tracer) (*outcome, error) {
	// Ops, set-ups and restarts are timed on the process CPU clock; the
	// thread stays locked for the blocking check.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var timer cpuTimer
	st := &staticRun{userWeights: lb.TwoPointWeights(fig1M, 1, fig1Heavy), tr: tr}
	for i := 0; i < staticCycle; i++ {
		st.trials = append(st.trials, trial{
			userSeed:   mix(cfg.seed, 10, uint64(i)),
			resSeed:    mix(cfg.seed, 11, uint64(i)),
			resWeights: lb.ParetoWeights(thm3M, paretoAlpha, paretoCap, mix(cfg.seed, 12, uint64(i))),
		})
	}
	m := map[string]float64{}
	o := &outcome{metrics: m}

	// Set-up: build both graphs and warm up, several times.
	var setups []float64
	for s := 0; s < staticSetups; s++ {
		// Each set-up and restart starts from a collected heap, as a
		// fresh process would, so peak RSS does not depend on where the
		// collector stood.
		st.kn, st.torus = nil, nil
		runtime.GC()
		timer.start()
		st.kn, st.torus = lb.CompleteGraph(kN), lb.TorusGraph(torusSide, torusSide)
		for w := 0; w < warmPairs; w++ {
			if err := st.pair(&st.trials[w], -1, false); err != nil {
				return nil, err
			}
		}
		setups = append(setups, timer.stop().Seconds())
	}
	m["setup_s"] = median(setups)

	// Check pass, untimed: every trial balances below the threshold
	// and conserves weight; its round and move counts are recorded.
	for i := range st.trials {
		if err := st.pair(&st.trials[i], -1, true); err != nil {
			o.attempted++
			o.failed++
			return o, err
		}
	}

	// Timed passes over the trial cycle.
	var lat, passRates, cpus []float64
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(cfg.budget)
	for op := int64(0); time.Now().Before(deadline); {
		var passTime time.Duration
		timer.start()
		for i := range st.trials {
			c0 := cpuClock()
			err := st.pair(&st.trials[i], op, tr != nil)
			d := cpuClock() - c0
			o.attempted++
			op++
			if err != nil {
				o.failed++
				return o, err
			}
			passTime += d
			lat = append(lat, ms(d))
		}
		cpus = append(cpus, ms(timer.stop())/float64(len(st.trials)))
		passRates = append(passRates, float64(len(st.trials))/passTime.Seconds())
	}
	m["cpu_ms_per_op"] = median(cpus)
	var err error
	if m["peak_rss_mb"], err = selfRSS(); err != nil {
		return nil, err
	}
	m["ops_per_s"] = median(passRates)
	o.opsPerSec = m["ops_per_s"]
	if err := latencyMetrics(lat, m); err != nil {
		return nil, err
	}

	// Restart: what a restarted experiment pays before its first result —
	// both graph builds and the cycle's first trial pair.
	var rs []float64
	for i := 0; i < staticRestarts; i++ {
		st.kn, st.torus = nil, nil
		runtime.GC()
		timer.start()
		st.kn, st.torus = lb.CompleteGraph(kN), lb.TorusGraph(torusSide, torusSide)
		if err := st.pair(&st.trials[0], -1, false); err != nil {
			return nil, err
		}
		rs = append(rs, timer.stop().Seconds())
	}
	m["restart_s"] = median(rs)
	if err := timer.check(); err != nil {
		return o, err
	}

	var ur, rr, moves, tasks float64
	for _, t := range st.trials {
		ur += float64(t.userRounds)
		rr += float64(t.resRounds)
		moves += float64(t.userMoves + t.resMoves)
		tasks += float64(fig1M + thm3M)
	}
	o.digest = fmt.Sprintf("rounds=%v/%v moves=%v", ur, rr, moves)
	if tr != nil {
		n := float64(len(st.trials))
		m["core.rounds_user"] = ur / n
		m["core.rounds_resource"] = rr / n
		m["core.moves_per_task"] = moves / tasks
		m["core.user_round_us"] = median(tr.selfByName("core.user.round"))
		m["core.resource_round_us"] = median(tr.selfByName("core.resource.round"))
		probeLayers(cfg.seed, tr, m)
	}
	return o, nil
}

// pair runs one trial's two Scenario.Run calls. With check set it
// watches every round's loads: the first run of a trial records its
// counts, later runs must repeat them, and the final loads must
// conserve weight and sit at or below the threshold.
func (st *staticRun) pair(t *trial, op int64, check bool) error {
	parent := st.tr.begin("paper.pair", -1, op)
	defer st.tr.end(parent)
	runs := []struct {
		name   string
		sc     lb.Scenario
		rounds *int
		moves  *int64
	}{
		{"core.user", lb.Scenario{Graph: st.kn, Weights: st.userWeights, Epsilon: fig1Eps,
			Protocol: lb.UserBased, Seed: t.userSeed}, &t.userRounds, &t.userMoves},
		{"core.resource", lb.Scenario{Graph: st.torus, Weights: t.resWeights, Epsilon: thm3Eps,
			Protocol: lb.ResourceBased, LazyWalk: true, Seed: t.resSeed}, &t.resRounds, &t.resMoves},
	}
	for _, r := range runs {
		var last []float64
		if check {
			prev, id := time.Now(), -1
			r.sc.OnRound = func(round int, loads []float64) {
				now := time.Now()
				if round > 1 && op >= 0 {
					st.tr.record(r.name+".round", id, op, prev, now)
				}
				prev, last = now, loads
			}
			id = st.tr.begin(r.name, parent, op)
			res, err := r.sc.Run()
			st.tr.end(id)
			if err := checkStatic(r.name, r.sc, res, err, last); err != nil {
				return err
			}
			if err := repeatCounts(r.name, res, r.rounds, r.moves); err != nil {
				return err
			}
			continue
		}
		id := st.tr.begin(r.name, parent, op)
		res, err := r.sc.Run()
		st.tr.end(id)
		if err == nil && !res.Balanced {
			err = checkf("%s seed %d did not balance in %d rounds", r.name, r.sc.Seed, res.Rounds)
		}
		if err != nil {
			return err
		}
		if err := repeatCounts(r.name, res, r.rounds, r.moves); err != nil {
			return err
		}
	}
	return nil
}

// repeatCounts records a trial's first counts and checks later runs
// against them: the runs are deterministic per seed.
func repeatCounts(name string, res lb.Result, rounds *int, moves *int64) error {
	if *rounds == 0 {
		*rounds, *moves = res.Rounds, res.Migrations
		return nil
	}
	if res.Rounds != *rounds || res.Migrations != *moves {
		return checkf("%s: %d rounds / %d moves, first run of this seed gave %d / %d",
			name, res.Rounds, res.Migrations, *rounds, *moves)
	}
	return nil
}

func checkStatic(name string, sc lb.Scenario, res lb.Result, err error, loads []float64) error {
	if err != nil {
		return err
	}
	if !res.Balanced || loads == nil {
		return checkf("%s seed %d did not balance in %d rounds", name, sc.Seed, res.Rounds)
	}
	w, wmax := 0.0, 0.0
	for _, x := range sc.Weights {
		w += x
		wmax = math.Max(wmax, x)
	}
	got, top := 0.0, 0.0
	for _, l := range loads {
		got += l
		top = math.Max(top, l)
	}
	if math.Abs(got-w) > 1e-9*w {
		return checkf("%s seed %d: final loads sum to %v, tasks weigh %v", name, sc.Seed, got, w)
	}
	n := float64(len(loads))
	if thr := (1+sc.Epsilon)*w/n + wmax; top > thr*(1+1e-12) {
		return checkf("%s seed %d: max load %v above the threshold %v", name, sc.Seed, top, thr)
	}
	return nil
}

// latencyMetrics sets op_p50_ms and op_p90_ms from per-op latencies in
// milliseconds.
func latencyMetrics(lat []float64, m map[string]float64) error {
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return fmt.Errorf("op latency: %w (raise --seconds)", err)
	}
	m["op_p50_ms"] = median(lat)
	m["op_p90_ms"] = p90
	return nil
}
