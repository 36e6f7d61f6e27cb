package dynamic

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// Property-based invariant suite: instead of pinning hand-picked
// scenarios, these tests draw whole random configurations — topology,
// speeds, arrivals, service, dispatch, churn, worker count — and
// assert the engine's structural invariants on every round of every
// run:
//
//  1. total weight conservation across migrate/deliver/evacuate
//     (Config.CheckInvariants re-validates the stack/location/set
//     triple and the W(t) = arrived − departed balance each round),
//  2. no task is ever resident on a down resource at a round boundary,
//  3. the incremental OverloadedCount always matches a from-scratch
//     recount, and
//  4. (in internal/task) the free list never double-issues an ID.
//
// The draws are table-driven from a fixed seed, so failures replay
// deterministically.

// randomPropertyConfig draws one full engine configuration.
func randomPropertyConfig(r *rng.Rand) Config {
	n := 24 + 2*r.Intn(37) // even, 24..96
	var g *graph.Graph
	complete := r.Bool(0.5)
	if complete {
		g = graph.Complete(n)
	} else {
		g = graph.RandomRegular(n, 6, rng.NewSeeded(r.Uint64()))
	}
	kernel := func() walk.Kernel { return walk.NewLazy(walk.NewMaxDegree(g)) }

	var speeds []float64
	meanSpeed := 1.0
	if r.Bool(0.6) {
		classes := [][]float64{{1, 10}, {1, 2, 4, 10}, {1, 1, 5}, {2, 3}}[r.Intn(4)]
		speeds = make([]float64, n)
		total := 0.0
		for i := range speeds {
			speeds[i] = classes[i%len(classes)]
			total += speeds[i]
		}
		meanSpeed = total / float64(n)
	}

	var proto core.Protocol
	switch {
	case complete && r.Bool(0.5):
		proto = core.UserControlled{Alpha: 0.5 + r.Float64()}
	case r.Bool(0.5):
		proto = core.ResourceControlled{Kernel: kernel()}
	default:
		proto = core.UserControlledGraph{Alpha: 0.5 + r.Float64()}
	}

	var svc Service = WeightProportional{Rate: 0.5 + r.Float64()}
	if r.Bool(0.3) {
		svc = Geometric{P: 0.05 + 0.4*r.Float64()}
	}

	var disp Dispatch
	switch r.Intn(4) {
	case 0:
		disp = UniformDispatch{}
	case 1:
		disp = HotspotDispatch{Resource: r.Intn(n)}
	case 2:
		disp = PowerOfD{D: 1 + r.Intn(3)}
	default:
		disp = &SpeedWeighted{}
	}

	var tuner Tuner
	if r.Bool(0.5) {
		tuner = &OracleTuner{Eps: 0.2 + r.Float64(), Every: 1 + r.Intn(5)}
	} else {
		tuner = &SelfTuner{Eps: 0.2 + r.Float64(), Decay: 0.5 + 0.4*r.Float64(),
			Every: 1 + r.Intn(10), Steps: 1 + r.Intn(4), Kernel: kernel()}
	}

	churn := Churn{}
	if r.Bool(0.7) {
		churn = Churn{
			LeaveProb: 0.3 * r.Float64(),
			JoinProb:  0.3 * r.Float64(),
			MinUp:     n / 4,
		}
		if r.Bool(0.5) {
			churn.Events = []ChurnEvent{
				{Round: 5 + r.Intn(20), Every: 20 + r.Intn(20), Down: n / 3},
				{Round: 15 + r.Intn(20), Every: 20 + r.Intn(20), Up: n / 3},
			}
		}
	}

	// Arrivals sized to the fleet's (possibly heterogeneous) capacity
	// so random draws stay in a stable-ish regime.
	rho := 0.5 + 0.4*r.Float64()
	var arr Arrivals = Poisson{Rate: rho * float64(n) * meanSpeed / paretoMean,
		Weights: task.Pareto{Alpha: 2, Cap: 20}}
	if r.Bool(0.2) {
		arr = Burst{Every: 1 + r.Intn(10), Size: n, Weights: task.UniformRange{Lo: 1, Hi: 4}}
	}

	return Config{
		Graph:           g,
		Speeds:          speeds,
		Protocol:        proto,
		Arrivals:        arr,
		Service:         svc,
		Dispatch:        disp,
		Tuner:           tuner,
		Churn:           churn,
		Rounds:          100 + r.Intn(60),
		Window:          25,
		Seed:            r.Uint64(),
		Workers:         1 + r.Intn(4),
		CheckInvariants: true,
	}
}

// TestPropertyEngineInvariants runs randomized open-system
// configurations and asserts, after every round, that no down resource
// holds a task and that the O(1) overloaded counter matches a
// from-scratch recount. Weight conservation and the
// stack/location/task-set consistency are re-validated every round by
// CheckInvariants.
func TestPropertyEngineInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised engine runs take a few seconds")
	}
	r := rng.NewSeeded(0x9095)
	for trial := 0; trial < 12; trial++ {
		cfg := randomPropertyConfig(r)
		failed := false
		checked := 0
		cfg.OnRound = func(round int, s *core.State) {
			checked++
			// Recount overload from scratch over ALL resources: down
			// resources are empty at a round boundary (load 0 ≤ thr), so
			// the full recount equals the up-only count the engine
			// maintains incrementally.
			over := 0
			for res := 0; res < s.N(); res++ {
				if s.Overloaded(res) {
					over++
				}
			}
			if got := s.OverloadedCount(); got != over && !failed {
				failed = true
				t.Errorf("trial %d round %d: OverloadedCount() = %d, recount = %d", trial, round, got, over)
			}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg, err)
		}
		if checked != cfg.Rounds {
			t.Fatalf("trial %d: OnRound fired %d times for %d rounds", trial, checked, cfg.Rounds)
		}
		if failed {
			t.Fatalf("trial %d: overloaded-counter invariant violated", trial)
		}
		// Conservation of counts, mirroring the weight balance that
		// CheckInvariants enforces every round.
		if res.FinalInFlight != int(res.Arrived)-int(res.Departed) {
			t.Fatalf("trial %d: in-flight %d != arrived %d − departed %d",
				trial, res.FinalInFlight, res.Arrived, res.Departed)
		}
	}
}

// TestPropertyNoTaskOnDownResource drives churn-heavy randomized runs
// through the engine's internal round loop (the public API does not
// expose the up set) and asserts after every round that every down
// resource is empty — evacuation plus the bounce step must never
// leave a task stranded on a machine that has left the system.
func TestPropertyNoTaskOnDownResource(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised engine runs take a few seconds")
	}
	r := rng.NewSeeded(77)
	for trial := 0; trial < 8; trial++ {
		cfg := randomPropertyConfig(r)
		// Force real churn so the property is exercised.
		cfg.Churn = Churn{LeaveProb: 0.4, JoinProb: 0.3, MinUp: cfg.Graph.N() / 4,
			Events: []ChurnEvent{{Round: 10, Every: 25, Down: cfg.Graph.N() / 2},
				{Round: 22, Every: 25, Up: cfg.Graph.N() / 2}}}
		if err := validate(cfg); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e := newEngine(cfg)
		for round := 0; round < cfg.Rounds; round++ {
			if err := e.round(round); err != nil {
				e.close()
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			for i := 0; i < e.up.DownN(); i++ {
				if res := e.up.DownAt(i); e.s.Count(res) > 0 {
					e.close()
					t.Fatalf("trial %d round %d: down resource %d holds %d tasks",
						trial, round, res, e.s.Count(res))
				}
			}
		}
		if e.res.Downs == 0 || e.res.Rehomed == 0 {
			e.close()
			t.Fatalf("trial %d: churn never exercised evacuation (downs=%d rehomed=%d)",
				trial, e.res.Downs, e.res.Rehomed)
		}
		e.close()
	}
}

// TestPropertyExchangeMatchesSequential feeds identical random move
// sets through the parallel exchange (under a random shard partition)
// and a one-shard exchange — the batch a static round delivers —
// starting from identically constructed states: stacks, locations,
// loads and the folded stats must agree bit for bit — the delivery
// layer's partition-invariance property, randomised.
func TestPropertyExchangeMatchesSequential(t *testing.T) {
	r := rng.NewSeeded(4242)
	for trial := 0; trial < 20; trial++ {
		n := 8 + r.Intn(40)
		m := 1 + r.Intn(300)
		seed := r.Uint64()
		g := graph.Complete(n)
		build := func() *core.State {
			ws := make([]float64, m)
			wr := rng.NewSeeded(seed)
			for i := range ws {
				ws[i] = 1 + 9*wr.Float64()
			}
			placement := make([]int, m)
			for i := range placement {
				placement[i] = int(wr.Uint64() % uint64(n))
			}
			ts := task.NewSet(ws)
			return core.NewState(g, ts, placement, core.AboveAverage{Eps: 0.5}, seed)
		}
		sa, sb := build(), build()

		// Evacuate a random subset of resources on both states in the
		// same order, assigning each popped task the same random dest.
		nEvac := 1 + r.Intn(n/2+1)
		var movesA, movesB []core.Migration
		for k := 0; k < nEvac; k++ {
			res := (trial*7 + k*13) % n
			ta := sa.EvacuateAppend(res, nil)
			tb := sb.EvacuateAppend(res, nil)
			if len(ta) != len(tb) {
				t.Fatalf("trial %d: evac mismatch on resource %d", trial, res)
			}
			for i := range ta {
				dest := int32(r.Intn(n))
				movesA = append(movesA, core.Migration{Task: ta[i], Dest: dest})
				movesB = append(movesB, core.Migration{Task: tb[i], Dest: dest})
			}
		}

		// Random contiguous partition for the exchange.
		shards := 1 + r.Intn(4)
		bounds := make([]int, shards+1)
		bounds[shards] = n
		for j := 1; j < shards; j++ {
			bounds[j] = bounds[j-1] + r.Intn(n-bounds[j-1]+1) // empty shards allowed
		}
		x := core.NewExchange(bounds)
		// Split the moves arbitrarily across source shards (the split
		// must not matter).
		per := (len(movesA) + shards - 1) / shards
		for i := 0; i < shards; i++ {
			lo := i * per
			hi := lo + per
			if lo > len(movesA) {
				lo = len(movesA)
			}
			if hi > len(movesA) {
				hi = len(movesA)
			}
			x.Route(i, movesA[lo:hi])
		}
		for j := 0; j < shards; j++ {
			x.DeliverShard(sa, j)
		}
		stA := x.Finish(sa, true)
		one := core.NewExchange([]int{0, n})
		one.Route(0, movesB)
		one.DeliverShard(sb, 0)
		stB := one.Finish(sb, true)

		if stA != stB {
			t.Fatalf("trial %d: stats diverge: exchange %+v vs sequential %+v", trial, stA, stB)
		}
		for res := 0; res < n; res++ {
			if la, lb := sa.Load(res), sb.Load(res); la != lb {
				t.Fatalf("trial %d: resource %d load %v vs %v", trial, res, la, lb)
			}
			ta, tb := sa.Stack(res).Tasks(), sb.Stack(res).Tasks()
			if len(ta) != len(tb) {
				t.Fatalf("trial %d: resource %d stack sizes %d vs %d", trial, res, len(ta), len(tb))
			}
			for i := range ta {
				if ta[i] != tb[i] {
					t.Fatalf("trial %d: resource %d stack order diverges at %d: %+v vs %+v",
						trial, res, i, ta[i], tb[i])
				}
			}
		}
		for id := 0; id < m; id++ {
			if sa.Location(id) != sb.Location(id) {
				t.Fatalf("trial %d: task %d location %d vs %d", trial, id, sa.Location(id), sb.Location(id))
			}
		}
		if err := sa.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: exchange state invalid: %v", trial, err)
		}
		if math.IsNaN(stA.MovedWeight) {
			t.Fatalf("trial %d: NaN moved weight", trial)
		}
	}
}
