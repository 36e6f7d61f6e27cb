package dynamic

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/trace"
)

// The sharded round pipeline. The n resources are partitioned into
// Workers contiguous shards that live on a persistent worker pool
// (internal/par); every O(n) sweep — service and departures, the
// tuner's decay and diffusion passes, the protocol's propose phase —
// AND every O(moves) cross-shard effect — migration delivery, churn
// evacuation — runs shard-local with per-shard scratch buffers.
// Cross-shard moves travel through a per-destination-shard exchange
// (core.Exchange): the propose/evacuate phase routes each shard's
// accepted moves into (source, destination)-shard lanes, and a second
// parallel phase has every destination shard k-way-merge and apply its
// own inbound lanes, so delivery is O(moves/shard) parallel instead of
// the former O(moves) sequential sort-and-push barrier. Arrivals stay
// sequential by design: their streams are global, ID assignment is
// order-sensitive, and load-aware dispatch must observe earlier
// same-round arrivals; they cost O(arrivals) with O(1) per-task work,
// which the sharded sweeps dwarf.
//
// Determinism is the design constraint, and it is enforced by three
// rules:
//
//  1. Randomness is only ever drawn from per-resource streams (inside
//     a shard phase, for the resource being processed — service draws,
//     propose draws, and a lost resource's re-home draws all ride the
//     resource's own stream) or from the engine's sequential streams
//     (arrivals, dispatch, churn selection) outside the parallel
//     phases. No stream is ever shared across shards.
//  2. A shard phase writes only shard-owned state: its resources'
//     stacks, its tasks' location entries, its scratch buffers. The
//     one shared aggregate — the overloaded-resource counter — is an
//     integer updated atomically, so its barrier-time value is
//     independent of interleaving.
//  3. Every floating-point reduction runs in a canonical order that
//     does not depend on the shard partition: departures settle in
//     ascending resource order, migrations deliver in (destination,
//     task ID) order with MovedWeight folded as ascending-resource
//     partial sums (see core.Exchange), and window snapshots scan the
//     up list. Shard-concatenation order never feeds a float sum.
//
// Together these make the run a pure function of (Config minus
// Workers), which the cross-worker-count golden tests pin — including
// mass-failure rounds that evacuate a thousand resources at once.
// Because every phase produces identical output for ANY contiguous
// partition, the engine is free to move the shard boundaries at
// runtime: it times each shard's phases and every telemetryEvery rounds
// re-cuts the partition so measured per-shard cost equalises
// (par.Balance), which keeps skewed workloads from bottlenecking on
// one worker without touching the determinism contract.
//
// The steady-state hot path is also allocation-free: arrival weights,
// departure indices, evacuation lists, migration buffers, exchange
// lanes and metric snapshots all live in reusable engine- or
// shard-owned buffers, task IDs (and the arrays indexed by them) are
// recycled via the task set's free list, and the pool dispatches
// phases without allocating.

// shard is one worker's slice of the resource range plus its scratch.
type shard struct {
	lo, hi    int
	depIdx    []int            // service departure-index scratch
	departed  []task.Task      // tasks departed this round, resource-ascending
	depFrom   []int32          // each departure's resource (locations clear on removal)
	evacTasks []task.Task      // evacuation pop scratch
	evacMoves []core.Migration // evacuation re-home moves
	traceRecs []trace.Record   // sampled-task records found in this shard's parallel phase
	sc        core.ProposeScratch
}

// telemetryEvery is the period, in rounds, of telemetry reports and
// measured-cost shard sizing. One period serves both, so a lane or
// phase report always describes exactly one rebalance window.
const telemetryEvery = 64

type engine struct {
	cfg       Config
	n         int
	window    int
	minUp     int
	speeds    []float64 // per-resource speeds; nil = homogeneous
	dispatch  Dispatch
	rehome    Dispatch       // never nil; UniformDispatch{} by default
	rehomeObs RehomeObserver // non-nil when the policy tracks the up set
	ptuner    PooledTuner    // nil → sequential Tuner.Refresh

	s  *core.State
	ts *task.Set
	up *UpSet
	// reach is the REACHABLE up set: up minus the resources isolated by
	// an active fault-plan partition window. Arrivals dispatch into it
	// and the tuner refreshes over it, so thresholds pre-compensate for
	// unreachable capacity during a partition. It aliases up whenever the
	// run has no partition windows, so the fault-free path costs nothing.
	reach *UpSet

	// inj is the message-fault injector (nil on fault-free runs): it
	// filters the propose phase's migration traffic, runs the in-flight
	// retry ledger and the delay wheel, and scripts partition windows.
	inj      *faults.Injector
	curRound int // round in progress, read by the parallel propose phase

	// Flapping-resource quarantine (Config.Quarantine): per-resource
	// churn-transition counts over a tumbling window; a resource that
	// flaps Flaps times is held down for Cooloff rounds, its deferred
	// rejoin re-applied when the hold expires. All sequential churn-phase
	// state.
	quarCfg        Quarantine
	flapCnt        []int32
	quarUntil      []int32 // round the hold-down expires; 0 = not quarantined
	quarWantUp     []bool  // a rejoin arrived during the hold
	quarActive     []int   // currently quarantined resources, entry order
	quarForcedDown int     // hold-down evictions this round (feeds evacuation)

	pool   *par.Pool
	shards []shard
	exch   *core.Exchange
	bounds []int // current shard boundaries, len(shards)+1

	// Measured-cost shard sizing and phase profiling: accumulated nanos
	// per phase, one row per shard and a last row for the sequential
	// phases (arrivals, tune). nil unless a broker wants profiles or
	// there is more than one shard to balance. Boundary placement never
	// affects results, only the work split.
	phaseNanos [][obs.NumPhases]int64
	costBuf    []float64 // per-resource cost scratch (lazily sized n)
	boundsBuf  []int     // par.Balance output scratch

	// Streaming observability (nil broker = disabled): events are
	// published from the engine's sequential sections only, via the
	// reusable ev buffer so the hot path allocates nothing. Telemetry
	// events (lanes, shard costs, phase timings) fire every
	// telemetryEvery rounds; window events ride flush; recovery events
	// fire as episodes open and close.
	broker  *obs.Broker
	domains []obs.Domains
	ev      obs.Event
	// Per-shard window accumulators (broker runs only) and the
	// per-domain window scratch.
	wShardArr, wShardDep, wShardInb []int64
	domAgg                          [][]domAgg

	// Sequential engine streams, living above the per-resource streams
	// 0..n−1 (slot n+2 was the global service stream before service
	// randomness moved onto the per-resource streams).
	arrRand, dispRand, churnRand *rng.Rand

	remaining  []float64 // task ID → remaining service work
	weightsBuf []float64 // this round's arrival weights

	// External-input mode (Engine.Step): the live runtime stages the
	// round's admitted arrival weights and reconfiguration ops here and
	// round(t) consumes them in place of cfg.Arrivals / ahead of
	// cfg.Churn. The arrival stream (arrRand) is never touched in this
	// mode, so a lockstep replay of the recorded inputs reproduces the
	// live run bit-for-bit.
	extActive      bool
	extWeights     []float64
	extDown, extUp []int

	initialWeight float64
	res           Result

	// Recovery-episode tracker: a round that downs resources opens an
	// episode; it closes when the overload fraction returns to the
	// pre-failure baseline (drained) or when the next failure / run end
	// cuts it short (censored). All inputs are partition-invariant.
	prevOverload   float64 // overload fraction after the previous round
	recOpen        bool
	recCur         RecoveryStat
	evacTasksRound int64   // this round's evacuation moves
	evacWtRound    float64 // and their weight

	// Per-window accumulators, and the load and load-per-speed scratch
	// every window snapshot (fleet and shard) fills.
	wOverload                                     float64
	wMigrations, wRehomed, wArrivals, wDepartures int64
	windowStart                                   int
	loadBuf, normBuf                              []float64

	// Checkpointing (Config.CheckpointEvery / Engine.Checkpoint): the
	// writing codec persists across checkpoints so steady-state rounds
	// stay allocation-free once its buffer reaches its high-water mark.
	// startRound is where run() enters the loop (non-zero after Resume);
	// nextRound tracks the boundary a checkpoint captures.
	ckpt       *snapshot.Codec
	startRound int
	nextRound  int

	// Domain SLO alert tracker (Config.AlertBudget): per level, per
	// domain, the consecutive-window over-budget streak and whether an
	// alert is currently firing. Sequential flush-phase state.
	alertBudget float64
	alertK      int
	alertCnt    [][]int32
	alertActive [][]bool

	// Task-lifecycle tracing. arrT and hopCnt are the ALWAYS-ON
	// histogram state — task ID → arrival round and migration hops so
	// far, recycled with the ID — feeding Result.Sojourn/Hops at every
	// departure. traceOn (TraceSample > 0 with a broker attached)
	// additionally publishes KindTrace records for the sampled tasks:
	// whether a task is sampled is a stateless hash of (traceSeed, ID),
	// never the shard split, and every record is emitted from a
	// sequential section — parallel phases stage theirs in shard
	// scratch, drained in a canonical partition-invariant order.
	traceOn   bool
	traceSeed uint64
	arrT      []int32
	hopCnt    []int32
	traceBuf  []trace.Record // evacuation-record drain scratch (sorted by task ID)

	// Phase closures, bound once so pool dispatch allocates nothing.
	serviceFn, proposeFn, deliverFn, evacFn func(int)
}

// domAgg accumulates one failure domain's window snapshot.
type domAgg struct {
	up, down, over int
	load, max      float64
}

func newEngine(cfg Config) *engine {
	n := cfg.Graph.N()
	e := &engine{cfg: cfg, n: n}
	e.window = cfg.Window
	if e.window <= 0 {
		e.window = 100
	}
	// The speed profile is copied so a caller mutating its slice cannot
	// desynchronise the engine, the tuner and the dispatcher mid-run.
	if cfg.Speeds != nil {
		e.speeds = append([]float64(nil), cfg.Speeds...)
		if sat, ok := cfg.Tuner.(SpeedAwareTuner); ok {
			sat.SetSpeeds(e.speeds)
		}
	}
	e.dispatch, e.rehome = UniformDispatch{}, UniformDispatch{}
	if cfg.Dispatch != nil {
		e.dispatch = e.prime(cfg.Dispatch)
	}
	if cfg.Rehome != nil {
		e.rehome = e.prime(cfg.Rehome)
	}
	e.minUp = cfg.Churn.MinUp
	if e.minUp <= 0 {
		e.minUp = 1
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	// Seed state. Thresholds start at zero; the tuner sets real ones in
	// round 0 before the first protocol step.
	placement := cfg.InitialPlacement
	if len(cfg.InitialWeights) > 0 {
		e.ts = task.NewSet(cfg.InitialWeights)
		if placement == nil {
			placement = make([]int, e.ts.M())
		}
	} else {
		e.ts = task.NewEmptySet()
		placement = nil
	}
	e.s = core.NewState(cfg.Graph, e.ts, placement,
		core.FixedVector{V: make([]float64, n), Label: "dynamic-init"}, cfg.Seed)

	e.arrRand = rng.Stream(cfg.Seed, uint64(n))
	e.dispRand = rng.Stream(cfg.Seed, uint64(n)+1)
	e.churnRand = rng.Stream(cfg.Seed, uint64(n)+3)

	e.up = NewUpSet(n)
	e.reach = e.up
	if cfg.Faults.Active() {
		e.inj = faults.NewInjector(cfg.Faults, n, workers, cfg.Seed)
		if len(cfg.Faults.Partitions) > 0 {
			e.reach = NewUpSet(n)
		}
	}
	e.quarCfg = cfg.Quarantine.withDefaults()
	if e.quarCfg.enabled() {
		e.flapCnt = make([]int32, n)
		e.quarUntil = make([]int32, n)
		e.quarWantUp = make([]bool, n)
	}
	if obs, ok := e.rehome.(RehomeObserver); ok {
		e.rehomeObs = obs
		obs.ResetUp(n)
	}
	e.remaining = make([]float64, e.ts.M())
	for i := 0; i < e.ts.M(); i++ {
		e.remaining[i] = e.ts.Weight(i)
	}
	e.initialWeight = e.ts.W()

	e.pool = par.NewPool(workers)
	e.shards = make([]shard, workers)
	e.bounds = make([]int, workers+1)
	for i := range e.shards {
		lo, hi := e.pool.Shard(n, i)
		e.shards[i] = shard{lo: lo, hi: hi}
		e.bounds[i] = lo
	}
	e.bounds[workers] = n
	e.exch = core.NewExchange(e.bounds)
	e.broker = cfg.Obs
	e.domains = cfg.Domains
	if e.broker != nil {
		e.exch.EnableLaneStats()
	}
	if workers > 1 || e.broker != nil {
		e.phaseNanos = make([][obs.NumPhases]int64, workers+1)
	}
	if e.broker != nil {
		e.wShardArr = make([]int64, workers)
		e.wShardDep = make([]int64, workers)
		e.wShardInb = make([]int64, workers)
		e.domAgg = make([][]domAgg, len(e.domains))
		for i := range e.domains {
			e.domAgg[i] = make([]domAgg, len(e.domains[i].Names))
		}
		if cfg.AlertBudget > 0 && len(e.domains) > 0 {
			e.alertBudget = cfg.AlertBudget
			e.alertK = cfg.AlertWindows
			if e.alertK <= 0 {
				e.alertK = 1
			}
			e.alertCnt = make([][]int32, len(e.domains))
			e.alertActive = make([][]bool, len(e.domains))
			for i := range e.domains {
				e.alertCnt[i] = make([]int32, len(e.domains[i].Names))
				e.alertActive[i] = make([]bool, len(e.domains[i].Names))
			}
		}
	}
	if pt, ok := cfg.Tuner.(PooledTuner); ok {
		e.ptuner = pt
	}
	e.loadBuf = make([]float64, 0, n)
	if e.speeds != nil {
		e.normBuf = make([]float64, 0, n)
	}
	// Lifecycle-histogram state always runs; record emission only with a
	// sampling rate and a broker. The trace seed is decorrelated from
	// every other stream of the run by its own salt.
	e.traceSeed = rng.Hash3(cfg.Seed, cfg.TraceSeed, 0x7ace5eed, 0)
	e.traceOn = cfg.TraceSample > 0 && e.broker != nil
	e.arrT = make([]int32, e.ts.M())
	e.hopCnt = make([]int32, e.ts.M())
	if e.traceOn && e.inj != nil {
		e.inj.SetTraceHook(e.traceHook)
	}
	e.serviceFn = e.serviceShard
	e.proposeFn = e.proposeShard
	e.deliverFn = e.deliverShard
	e.evacFn = e.evacShard
	return e
}

// prime hands a speed-caching placement policy the fleet's profile up
// front, so the round's hot path (and the parallel evacuation phase)
// only ever reads its cache.
func (e *engine) prime(d Dispatch) Dispatch {
	if sw, ok := d.(interface{ Prime([]float64) }); ok && e.speeds != nil {
		sw.Prime(e.speeds)
	}
	return d
}

// sampled reports whether task id's lifecycle is traced — a stateless
// draw, identical for every worker count and across checkpoint/resume.
func (e *engine) sampled(id int) bool {
	return trace.Sampled(e.traceSeed, id, e.cfg.TraceSample)
}

// noteArrival resets task id's lifecycle state (IDs are recycled),
// growing the ID-indexed vectors alongside remaining.
func (e *engine) noteArrival(id, t int) {
	for id >= len(e.arrT) {
		e.arrT = append(e.arrT, 0)
		e.hopCnt = append(e.hopCnt, 0)
	}
	e.arrT[id] = int32(t)
	e.hopCnt[id] = 0
}

// emitTrace publishes one sampled-task lifecycle record. Sequential
// sections only.
func (e *engine) emitTrace(rec *trace.Record) {
	e.ev = obs.Event{Kind: obs.KindTrace, Round: rec.Round, Trace: *rec}
	e.broker.Publish(&e.ev)
}

// traceHook observes the injector's sequential fault events (Collect's
// losses and delay parks, Tick's retry attempts) for sampled tasks.
// The task is still in flight at every hook point, so its location
// entry still names the source resource.
func (e *engine) traceHook(kind faults.HookKind, round int, tk task.Task, src, dest int32, attempt int32) {
	if !e.sampled(tk.ID) {
		return
	}
	rec := trace.Record{Round: round, Task: tk.ID, From: src, To: dest, Attempt: attempt}
	switch kind {
	case faults.HookLoss:
		rec.Op, rec.Cause = trace.OpLoss, trace.CauseRetry
	case faults.HookDelay:
		rec.Op, rec.Cause = trace.OpLoss, trace.CauseDelay
	case faults.HookRetry:
		rec.Op, rec.Cause = trace.OpRetry, trace.CauseRetry
	}
	e.emitTrace(&rec)
}

// close releases the pool's goroutines.
func (e *engine) close() { e.pool.Close() }

// run executes the configured number of rounds (entering at startRound
// when the engine was restored from a checkpoint). It is a thin loop
// over the shared step/finish pair so the live runtime (internal/serve)
// and the lockstep simulator advance through the EXACT same code —
// that identity is what the twin-equivalence suite pins.
func (e *engine) run() (Result, error) {
	for t := e.startRound; t < e.cfg.Rounds; t++ {
		if err := e.step(t); err != nil {
			return e.res, err
		}
	}
	return e.finish()
}

// step runs round t plus all of its boundary work — window flush,
// telemetry/rebalance, checkpoint, scripted crash — and advances
// nextRound. It is the single round-granularity unit both run() and
// the external-input Engine.Step drive.
func (e *engine) step(t int) error {
	if err := e.round(t); err != nil {
		return err
	}
	e.nextRound = t + 1
	if (t+1)%e.window == 0 {
		e.flush(t + 1)
	}
	// Telemetry emission and measured-cost rebalancing share one period
	// and one accumulator reset.
	if e.phaseNanos != nil && (t+1)%telemetryEvery == 0 {
		e.emitTelemetry(t + 1)
		e.rebalance()
		e.resetTelemetry()
	}
	// Checkpoint at the boundary, after the flush/telemetry/rebalance
	// hooks, so the snapshot captures a fully settled round. The crash
	// check runs after the checkpoint: a run killed at its checkpoint
	// round still leaves that round's snapshot behind.
	if e.cfg.CheckpointEvery > 0 && (t+1)%e.cfg.CheckpointEvery == 0 {
		if err := e.checkpoint(t + 1); err != nil {
			return err
		}
	}
	if e.cfg.CrashAfterRound > 0 && t+1 == e.cfg.CrashAfterRound {
		return ErrCrashed
	}
	return nil
}

// finish closes the run after the last stepped round (nextRound): the
// final window flush, censored recovery episodes, trailing telemetry,
// the fault counters and the conservation check. A run driven by
// Engine.Step may finish before cfg.Rounds — every tail computation
// uses the actually-reached round, so an early finish is exact.
func (e *engine) finish() (Result, error) {
	end := e.nextRound
	e.flush(end)
	if e.recOpen {
		e.res.Recoveries = append(e.res.Recoveries, e.recCur) // censored by run end
		e.emitRecovery(obs.KindRecoveryEnd, end)
		e.recOpen = false
	}
	// A trailing partial telemetry window still gets reported, so short
	// runs (and the tail of any run) see lane and phase series.
	if e.broker != nil && end%telemetryEvery != 0 {
		e.emitTelemetry(end)
		e.resetTelemetry()
	}
	e.res.Rounds = end
	e.res.FinalInFlight = e.ts.Live()
	e.res.FinalWeight = e.s.InFlightWeight()
	if e.inj != nil {
		c := e.inj.Counters()
		e.res.Lost = c.Lost
		e.res.Delayed = c.Delayed
		e.res.Duplicated = c.Duplicated
		e.res.Deduped = c.Deduped
		e.res.Retries = c.Retries
		e.res.Timeouts = c.Timeouts
		e.res.PartitionBlocked = c.PartitionBlocked
		e.res.FinalLedger, e.res.FinalLedgerWeight = e.s.InFlightLedger()
	}
	if err := checkConservation(e.s, e.initialWeight, e.res); err != nil {
		return e.res, fmt.Errorf("dynamic: %w", err)
	}
	return e.res, nil
}

// round advances the system by one open-system round.
func (e *engine) round(t int) error {
	s, up := e.s, e.up
	e.curRound = t

	// The pre-failure overload baseline for this round's potential
	// recovery episode, and the per-round evacuation accumulators.
	baseline := e.prevOverload
	e.evacTasksRound, e.evacWtRound = 0, 0
	e.quarForcedDown = 0

	// 0. Fault-plan partition windows open and close at the round
	// boundary: the injector recomputes its connectivity groups (only on
	// transition rounds) and the reachable set absorbs the deltas, so
	// dispatch and the tuner below already see the degraded fleet.
	if e.inj != nil {
		iso, rest := e.inj.StartRound(t)
		for _, r := range rest {
			if up.Contains(r) && !e.reach.Contains(r) {
				e.reach.Up(r)
			}
		}
		for _, r := range iso {
			if e.reach.Contains(r) {
				e.reach.Down(r)
			}
		}
	}
	// 0b. Quarantine bookkeeping: roll the tumbling flap window and
	// release the holds that expire this round (deferred rejoins apply
	// now, before this round's churn).
	if e.quarCfg.enabled() {
		e.quarTick(t)
	}

	// 1. Resource churn. Selecting WHICH resources leave or rejoin is
	// sequential (one global stream, cheap O(events)); evacuating the
	// failed resources' tasks — the expensive part of a mass failure —
	// is sharded below.
	// Externally scripted reconfiguration (Engine.Step ops) applies
	// ahead of config-driven churn, with scripted-event semantics:
	// drains open recovery episodes, MinUp is respected. It runs on no
	// randomness at all, so it is trivially replayable.
	eventDowns := e.drainListed(e.extDown)
	e.addListed(e.extUp)
	downsThis := eventDowns
	if e.cfg.Churn.enabled() {
		d, ed := e.applyChurn(t)
		downsThis += d
		eventDowns += ed
	}
	downsThis += e.quarForcedDown
	downed := downsThis > 0
	// 1b. Parallel evacuation: every task stranded on a down resource
	// is re-homed through the exchange, each lost resource drawing
	// destinations from its own deterministic re-home stream.
	if downed && e.evacPending() {
		e.evacuate(false)
	}

	// 2. Arrivals — sequential end to end: the arrival and dispatch
	// streams are global, ID assignment must happen in arrival order,
	// and load-aware dispatchers (PowerOfD) must observe the loads of
	// earlier same-round arrivals, so each task is placed immediately
	// after its pick. The work is O(arrivals) with O(1) per-task cost,
	// far below the O(n) sweeps the shards absorb.
	arrStart := e.clock()
	if e.extActive {
		// External-input mode: this round's batch was admitted by the
		// caller (Engine.Step). The arrival stream stays untouched.
		e.weightsBuf = append(e.weightsBuf[:0], e.extWeights...)
	} else {
		e.weightsBuf = e.cfg.Arrivals.Next(t, e.arrRand, e.weightsBuf[:0])
	}
	// During a partition window arrivals route into the reachable (main)
	// component only; if churn emptied it, fall back to the full up set
	// rather than stranding the round.
	reach := e.reach
	if reach.N() == 0 {
		reach = up
	}
	for _, w := range e.weightsBuf {
		dest := e.dispatch.Pick(s, reach, e.speeds, -1, w, e.dispRand)
		tk := s.InsertTask(w, dest)
		e.setRemaining(tk.ID, w)
		e.noteArrival(tk.ID, t)
		e.res.Arrived++
		e.res.ArrivedWeight += w
		e.wArrivals++
		if e.wShardArr != nil {
			e.wShardArr[sort.SearchInts(e.bounds, dest+1)-1]++
		}
		if e.traceOn && e.sampled(tk.ID) {
			e.emitTrace(&trace.Record{Round: t, Task: tk.ID, Op: trace.OpArrive,
				From: -1, To: int32(dest), Weight: w})
		}
	}
	e.lap(len(e.shards), obs.PhaseArrivals, arrStart)

	// 3a. Service and departures (up resources only), sharded: each
	// resource draws from its own stream and pops its own stack.
	e.pool.Run(len(e.shards), e.serviceFn)
	// 3b. Settle the shared accounting in canonical ascending-resource
	// order (shards are contiguous and ordered), so the weight totals
	// are identical for every worker count.
	for i := range e.shards {
		sh := &e.shards[i]
		if e.wShardDep != nil {
			e.wShardDep[i] += int64(len(sh.departed))
		}
		for j, tk := range sh.departed {
			soj, hops := int32(t)-e.arrT[tk.ID], e.hopCnt[tk.ID]
			e.res.Sojourn.Observe(int64(soj))
			e.res.Hops.Observe(int64(hops))
			if e.traceOn && e.sampled(tk.ID) {
				e.emitTrace(&trace.Record{Round: t, Task: tk.ID, Op: trace.OpDepart,
					From: sh.depFrom[j], To: -1, Weight: tk.Weight,
					Hops: hops, Sojourn: soj})
			}
			s.SettleDeparture(tk)
			e.res.Departed++
			e.res.DepartedWeight += tk.Weight
			e.wDepartures++
		}
		sh.departed = sh.departed[:0]
		sh.depFrom = sh.depFrom[:0]
	}

	// Settle the live-wmax cache at this consistent point (all
	// departures applied, nothing in limbo or mid-migration) so
	// neither the tuner nor the protocol recomputes it mid-phase.
	s.LiveWMax()

	// 4. Online threshold refresh, on the pool when the tuner supports
	// sharded sweeps.
	// The tuner refreshes over the REACHABLE set, so during a partition
	// window thresholds pre-compensate for the unreachable speed-mass
	// (reach aliases up on partition-free runs).
	tuneStart := e.clock()
	var thr []float64
	if e.ptuner != nil {
		thr = e.ptuner.RefreshPooled(t, s, reach, e.pool)
	} else {
		thr = e.cfg.Tuner.Refresh(t, s, reach)
	}
	if thr != nil {
		s.SetThresholds(thr)
	}
	e.lap(len(e.shards), obs.PhaseTune, tuneStart)

	// 5. One protocol round: sharded propose phases route each shard's
	// accepted moves into per-destination-shard lanes, then every
	// destination shard merges and applies its own inbound lanes in
	// canonical (destination, task ID) order — no sequential delivery
	// section. Finish folds the stats in a partition-independent order
	// and advances the round.
	e.pool.Run(len(e.shards), e.proposeFn)
	if e.traceOn {
		// Shards are contiguous and ordered, so a shard-ascending drain
		// is resource-ascending — the same canonical order for every
		// partition.
		for i := range e.shards {
			sh := &e.shards[i]
			for j := range sh.traceRecs {
				e.emitTrace(&sh.traceRecs[j])
			}
			sh.traceRecs = sh.traceRecs[:0]
		}
	}
	e.countMigrations(e.settle(true))

	// 5b. Fault-layer settlement: fold the propose shards' loss/delay
	// scratches into the ledger and delay wheel (canonical shard-ascending
	// order), then deliver this round's due batch — wheel arrivals, retry
	// successes, timeout re-homes — through an extra exchange round. The
	// batch runs BEFORE the bounce step so a delivery to a since-failed
	// destination (or a timeout re-home to a dead source) evacuates
	// through the configured re-home policy this same round.
	if e.inj != nil {
		e.inj.Collect(t, s)
		if due := e.inj.Tick(t, s, up); len(due) > 0 {
			e.noteDue(t, due)
			e.exch.Route(0, due)
			for i := 1; i < len(e.shards); i++ {
				e.exch.Route(i, nil)
			}
			e.countMigrations(e.settle(false))
		}
	}

	// 6. Bounce deliveries that landed on down resources — the same
	// sharded evacuation path as 1b (per-resource re-home streams, the
	// down list is only scanned to see whether anything is stranded).
	if up.DownN() > 0 && e.evacPending() {
		e.evacuate(true)
	}

	// 7. Metrics. Down resources are always empty here (bounced above)
	// and thresholds are non-negative, so the incremental all-resource
	// counter equals the overloaded count over up resources.
	frac := float64(s.OverloadedCount()) / float64(up.N())
	e.wOverload += frac

	// 7b. Recovery-episode bookkeeping: a SCRIPTED failure round opens
	// an episode (closing any still-open one as censored); an open
	// episode tracks its peak and closes once the overload fraction is
	// back at the pre-failure baseline. Per-round stochastic churn
	// (LeaveProb) does not open episodes — under continuous churn every
	// round would, drowning Recoveries in censored one-machine noise
	// and growing it without bound on long runs.
	if eventDowns > 0 {
		if e.recOpen {
			e.res.Recoveries = append(e.res.Recoveries, e.recCur)
			e.emitRecovery(obs.KindRecoveryEnd, t) // censored by the new failure
		}
		e.recCur = RecoveryStat{
			Round: t, Downs: downsThis,
			EvacTasks: e.evacTasksRound, EvacWeight: e.evacWtRound,
			BaselineOverload: baseline, DrainRounds: -1,
		}
		e.recOpen = true
		e.emitRecovery(obs.KindRecoveryStart, t)
	}
	if e.recOpen {
		if frac > e.recCur.PeakOverload {
			e.recCur.PeakOverload = frac
		}
		if frac <= e.recCur.BaselineOverload {
			e.recCur.DrainRounds = t - e.recCur.Round
			e.res.Recoveries = append(e.res.Recoveries, e.recCur)
			e.recOpen = false
			e.emitRecovery(obs.KindRecoveryEnd, t)
		}
	}
	e.prevOverload = frac

	if e.cfg.OnRound != nil {
		e.cfg.OnRound(t, s)
	}
	if e.cfg.CheckInvariants {
		if err := checkConservation(s, e.initialWeight, e.res); err != nil {
			return fmt.Errorf("dynamic: round %d: %w", t, err)
		}
		for i := 0; i < up.DownN(); i++ {
			if r := up.DownAt(i); s.Count(r) > 0 {
				return fmt.Errorf("dynamic: round %d: down resource %d holds %d tasks", t, r, s.Count(r))
			}
		}
	}
	return nil
}

// applyChurn runs round t's churn selection on the sequential churn
// stream: all failures first (each event's scripted DownList, then its
// random Down picks, then the stochastic leave), then all rejoins in
// the same order. A rejoin draw CAN resurrect a resource that failed
// earlier in the same round — its tasks simply stay put, since
// evacuation below only touches resources still down — so Downs and
// Ups both count the event even though no re-homing happened. A listed
// transition that has become moot at run time (the stochastic churn
// already downed the machine, or MinUp leaves no headroom) is skipped
// and NOT counted; ValidateEvents rejects schedules that conflict with
// themselves before the run starts. Returns the number of resources
// that went down, and how many of those a scripted event took (the
// count that opens recovery episodes).
func (e *engine) applyChurn(t int) (downs, eventDowns int) {
	up, c := e.up, &e.cfg.Churn
	for _, ev := range c.Events {
		if !ev.fires(t) {
			continue
		}
		eventDowns += e.drainListed(ev.DownList)
		for k := 0; k < ev.Down && up.N() > e.minUp; k++ {
			e.downResource(up.Random(e.churnRand))
			eventDowns++
		}
	}
	downs = eventDowns
	if c.LeaveProb > 0 && up.N() > e.minUp && e.churnRand.Bool(c.LeaveProb) {
		e.downResource(up.Random(e.churnRand))
		downs++
	}
	for _, ev := range c.Events {
		if !ev.fires(t) {
			continue
		}
		e.addListed(ev.UpList)
		for k := 0; k < ev.Up && up.DownN() > 0; k++ {
			e.upResource(up.RandomDown(e.churnRand))
		}
	}
	if c.JoinProb > 0 && up.DownN() > 0 && e.churnRand.Bool(c.JoinProb) {
		e.upResource(up.RandomDown(e.churnRand))
	}
	return downs, eventDowns
}

// drainListed downs every listed resource that is still up, while the
// fleet stays above MinUp, and returns how many went down. addListed
// rejoins every listed resource that is down. They apply a scripted
// event's lists and a Step call's ops alike.
func (e *engine) drainListed(list []int) (downs int) {
	for _, r := range list {
		if e.up.N() <= e.minUp {
			break
		}
		if e.up.Contains(r) {
			e.downResource(r)
			downs++
		}
	}
	return downs
}

func (e *engine) addListed(list []int) {
	for _, r := range list {
		if !e.up.Contains(r) {
			e.upResource(r)
		}
	}
}

// downResource/upResource apply one churn transition and feed the
// flapping quarantine, which defers the rejoin of a held resource
// until its cool-off expires. Both run only in the sequential churn
// phase.
func (e *engine) downResource(r int) {
	e.setDown(r)
	e.noteFlap(r)
}

func (e *engine) upResource(r int) {
	if e.flapCnt != nil && e.quarUntil[r] > int32(e.curRound) {
		e.quarWantUp[r] = true
		return
	}
	e.setUp(r)
	e.noteFlap(r)
}

// setDown and setUp are the only places a resource leaves or rejoins
// the system: the up set, the reachable set (a rejoin stays out of it
// while a partition isolates the resource), the re-home policy's view
// and Downs/Ups move together.
func (e *engine) setDown(r int) {
	e.up.Down(r)
	if e.reach != e.up && e.reach.Contains(r) {
		e.reach.Down(r)
	}
	if e.rehomeObs != nil {
		e.rehomeObs.ResourceDown(r)
	}
	e.res.Downs++
}

func (e *engine) setUp(r int) {
	e.up.Up(r)
	if e.reach != e.up && !e.inj.Isolated(r) {
		e.reach.Up(r)
	}
	if e.rehomeObs != nil {
		e.rehomeObs.ResourceUp(r)
	}
	e.res.Ups++
}

// noteFlap counts one churn transition of resource r toward the
// quarantine threshold; crossing it holds the resource down for the
// cool-off (evicting it if the flap ended up).
func (e *engine) noteFlap(r int) {
	if e.flapCnt == nil {
		return
	}
	e.flapCnt[r]++
	t := e.curRound
	if int(e.flapCnt[r]) < e.quarCfg.Flaps || e.quarUntil[r] > int32(t) {
		return
	}
	e.quarUntil[r] = int32(t + e.quarCfg.Cooloff)
	e.quarActive = append(e.quarActive, r)
	e.res.Quarantined++
	if e.up.Contains(r) {
		if e.up.N() <= e.minUp {
			// No headroom to evict: cancel the hold rather than drop the
			// fleet below its floor.
			e.quarUntil[r] = 0
			e.quarActive = e.quarActive[:len(e.quarActive)-1]
			e.res.Quarantined--
			return
		}
		e.setDown(r)
		e.quarForcedDown++
		e.quarWantUp[r] = true // it was up; rejoin when the hold expires
	}
	e.emitQuarantine(r, true, int(e.flapCnt[r]), int(e.quarUntil[r]))
}

// quarTick rolls the tumbling flap window and releases expired holds
// (re-applying deferred rejoins), in quarantine-entry order. Sequential,
// at the top of the round.
func (e *engine) quarTick(t int) {
	if e.quarCfg.Window > 0 && t%e.quarCfg.Window == 0 {
		clear(e.flapCnt)
	}
	if len(e.quarActive) == 0 {
		return
	}
	live := e.quarActive[:0]
	for _, r := range e.quarActive {
		if int(e.quarUntil[r]) > t {
			live = append(live, r)
			continue
		}
		e.quarUntil[r] = 0
		e.emitQuarantine(r, false, int(e.flapCnt[r]), t)
		if e.quarWantUp[r] && !e.up.Contains(r) {
			e.setUp(r)
		}
		e.quarWantUp[r] = false
	}
	e.quarActive = live
}

// emitQuarantine publishes one quarantine transition event.
func (e *engine) emitQuarantine(r int, entered bool, flaps, until int) {
	if e.broker == nil {
		return
	}
	e.ev = obs.Event{Kind: obs.KindQuarantine, Round: e.curRound,
		Quarantine: obs.QuarantineEvent{Resource: r, Entered: entered, Flaps: flaps, Until: until}}
	e.broker.Publish(&e.ev)
}

// evacPending reports whether any down resource still holds tasks — a
// cheap scan of the down list.
func (e *engine) evacPending() bool {
	for i := 0; i < e.up.DownN(); i++ {
		if e.s.Count(e.up.DownAt(i)) > 0 {
			return true
		}
	}
	return false
}

// noteDue folds the fault layer's due batch — delay-wheel deliveries,
// retry successes, timeout re-homes — into the lifecycle accounting
// before the batch is routed. The tasks are still in flight, so each
// location entry names the original source; a timeout re-home delivers
// back to it (no hop). Sequential; the batch order is canonical.
func (e *engine) noteDue(t int, due []core.Migration) {
	info := e.inj.DueInfo()
	for k := range due {
		mv := &due[k]
		id := mv.Task.ID
		// The task is still marked in flight (no stack location), so the
		// provenance comes from the injector's due metadata. A timeout
		// re-home delivers back to its source — not a hop.
		src := info[k].Src
		hop := mv.Dest != src
		if hop {
			e.hopCnt[id]++
		}
		if info[k].Kind != faults.DueDelay {
			// A ledger resolution: how long the lost message was held.
			e.res.RetryLat.Observe(int64(info[k].Latency))
		}
		if e.traceOn && e.sampled(id) {
			cause := trace.CauseDelay
			switch info[k].Kind {
			case faults.DueRetry:
				cause = trace.CauseRetry
			case faults.DueTimeout:
				cause = trace.CauseTimeout
			}
			e.emitTrace(&trace.Record{Round: t, Task: id, Op: trace.OpHop,
				Cause: cause, From: src, To: mv.Dest, Hops: e.hopCnt[id],
				Attempt: info[k].Attempt, Latency: info[k].Latency})
		}
	}
}

// evacuate re-homes every task stranded on a down resource through the
// exchange: a sharded pop-and-route phase, a barrier, and a sharded
// per-destination delivery phase. Identical for every worker count —
// each lost resource's destinations come from its own stream, and
// delivery merges in canonical (destination, task ID) order. bounce
// marks the post-delivery pass (step 6), whose re-homes are deliveries
// that landed on a down resource; they count into Result.Bounced on top
// of the shared Rehomed totals.
func (e *engine) evacuate(bounce bool) {
	e.pool.Run(len(e.shards), e.evacFn)
	if e.traceOn {
		// The down list's entry order is global state, but each shard
		// filters it to its own range, so shard concatenation is NOT
		// partition-invariant here — sorting by task ID (unique within
		// the batch) restores one canonical order. The cause is batch-
		// wide and known only here, so it is stamped on the way out.
		cause := trace.CauseEvac
		if bounce {
			cause = trace.CauseBounce
		}
		e.traceBuf = e.traceBuf[:0]
		for i := range e.shards {
			sh := &e.shards[i]
			e.traceBuf = append(e.traceBuf, sh.traceRecs...)
			sh.traceRecs = sh.traceRecs[:0]
		}
		sort.Slice(e.traceBuf, func(a, b int) bool { return e.traceBuf[a].Task < e.traceBuf[b].Task })
		for j := range e.traceBuf {
			e.traceBuf[j].Cause = cause
			e.emitTrace(&e.traceBuf[j])
		}
	}
	st := e.settle(false)
	e.res.Rehomed += int64(st.Migrations)
	e.res.RehomedWeight += st.MovedWeight
	e.wRehomed += int64(st.Migrations)
	e.evacTasksRound += int64(st.Migrations)
	e.evacWtRound += st.MovedWeight
	if bounce {
		e.res.Bounced += int64(st.Migrations)
		e.res.BouncedWeight += st.MovedWeight
	}
}

// setRemaining records a new task's service work, growing the ID-indexed
// vector only when the task set extends its ID space.
func (e *engine) setRemaining(id int, w float64) {
	for id >= len(e.remaining) {
		e.remaining = append(e.remaining, 0)
	}
	e.remaining[id] = w
}

// speedOf returns resource r's service speed (1 on homogeneous
// fleets).
func (e *engine) speedOf(r int) float64 {
	if e.speeds == nil {
		return 1
	}
	return e.speeds[r]
}

// serviceShard runs the service discipline over shard i's up
// resources, popping departures into the shard buffer in ascending
// resource order. Each resource's service capacity scales with its
// speed.
func (e *engine) serviceShard(i int) {
	start := e.clock()
	sh := &e.shards[i]
	s, svc := e.s, e.cfg.Service
	for r := sh.lo; r < sh.hi; r++ {
		if !e.up.Contains(r) || s.Count(r) == 0 {
			continue
		}
		sh.depIdx = svc.Departures(s.Stack(r), e.remaining, e.speedOf(r), s.Rand(r), sh.depIdx[:0])
		if len(sh.depIdx) == 0 {
			continue
		}
		prev := len(sh.departed)
		sh.departed = s.RemoveForDeparture(r, sh.depIdx, sh.departed)
		for range sh.departed[prev:] {
			sh.depFrom = append(sh.depFrom, int32(r))
		}
	}
	e.lap(i, obs.PhaseService, start)
}

// proposeShard runs the protocol's propose phase over shard i and
// routes the accepted moves into the exchange's per-destination lanes.
func (e *engine) proposeShard(i int) {
	start := e.clock()
	sh := &e.shards[i]
	sh.sc.Moves = sh.sc.Moves[:0]
	e.cfg.Protocol.ProposeRange(e.s, sh.lo, sh.hi, &sh.sc)
	moves := sh.sc.Moves
	if e.inj != nil {
		// The fault layer sits between propose and deliver: stateless
		// per-message draws decide loss/delay/duplication, partition cuts
		// bounce the move back to its source. Draw keys are (task, round),
		// so the outcome is identical for every shard partition.
		moves = e.inj.FilterShard(i, e.curRound, e.s, moves)
	}
	// Lifecycle accounting for the moves entering this delivery batch.
	// The tasks are off their stacks but undelivered, so each location
	// entry still names its source; a move whose destination equals its
	// source is a partition bounce, not a hop. The writes are safe in
	// the parallel phase — a shard's moves come off its own resources,
	// so the touched task IDs are disjoint across shards.
	for _, mv := range moves {
		src := int32(e.s.Location(mv.Task.ID))
		hop := mv.Dest != src
		if hop {
			e.hopCnt[mv.Task.ID]++
		}
		if e.traceOn && e.sampled(mv.Task.ID) {
			cause := trace.CauseProtocol
			if !hop {
				cause = trace.CausePartition
			}
			sh.traceRecs = append(sh.traceRecs, trace.Record{Round: e.curRound,
				Task: mv.Task.ID, Op: trace.OpHop, Cause: cause,
				From: src, To: mv.Dest, Hops: e.hopCnt[mv.Task.ID]})
		}
	}
	e.exch.Route(i, moves)
	e.lap(i, obs.PhasePropose, start)
}

// deliverShard merges and applies destination shard i's inbound
// exchange lanes.
func (e *engine) deliverShard(i int) {
	start := e.clock()
	e.exch.DeliverShard(e.s, i)
	e.lap(i, obs.PhaseDeliver, start)
}

// evacShard pops every task off shard i's non-empty down resources and
// routes them to the destinations the re-home policy picks, each lost
// resource drawing from its own re-home stream (its per-resource RNG),
// so the move set is independent of the shard partition for every
// policy. A policy that picks a down destination would strand the task
// — that is a contract violation, caught here rather than absorbed.
func (e *engine) evacShard(i int) {
	start := e.clock()
	sh := &e.shards[i]
	s, up := e.s, e.up
	sh.evacMoves = sh.evacMoves[:0]
	for k := 0; k < up.DownN(); k++ {
		r := up.DownAt(k)
		if r < sh.lo || r >= sh.hi || s.Count(r) == 0 {
			continue
		}
		sh.evacTasks = s.EvacuateAppend(r, sh.evacTasks[:0])
		rr := s.Rand(r)
		for _, tk := range sh.evacTasks {
			dest := e.rehome.Pick(s, up, e.speeds, r, tk.Weight, rr)
			if !up.Contains(dest) {
				panic(fmt.Sprintf("dynamic: rehome policy %q picked non-up resource %d for a task off %d",
					e.rehome.Name(), dest, r))
			}
			// An evacuation always moves the task (its source is down, the
			// destination is up), so it is unconditionally a hop. The IDs a
			// shard touches come off its own resources — disjoint writes.
			e.hopCnt[tk.ID]++
			if e.traceOn && e.sampled(tk.ID) {
				// Cause (evac vs bounce) is stamped at the sequential drain.
				sh.traceRecs = append(sh.traceRecs, trace.Record{Round: e.curRound,
					Task: tk.ID, Op: trace.OpHop, From: int32(r), To: int32(dest),
					Hops: e.hopCnt[tk.ID]})
			}
			sh.evacMoves = append(sh.evacMoves,
				core.Migration{Task: tk, Dest: int32(dest)})
		}
	}
	e.exch.Route(i, sh.evacMoves)
	e.lap(i, obs.PhaseEvac, start)
}

// clock and lap time the engine's phases, shard and sequential alike,
// when phaseNanos is on: clock reads the wall clock, and lap charges
// the time since start to phase p of row i (shard i, or len(shards)
// for the sequential phases). Each shard index is handled by exactly
// one worker per phase and the pool barrier orders the writes, so the
// plain int64 accumulation is race-free.
func (e *engine) clock() time.Time {
	if e.phaseNanos == nil {
		return time.Time{}
	}
	return time.Now()
}

func (e *engine) lap(i int, p obs.PhaseID, start time.Time) {
	if e.phaseNanos != nil {
		e.phaseNanos[i][p] += int64(time.Since(start))
	}
}

// shardPhaseSum folds shard i's accumulated phase nanos into the one
// per-shard cost measured-cost sizing balances on.
func (e *engine) shardPhaseSum(i int) int64 {
	var sum int64
	for _, ns := range e.phaseNanos[i] {
		sum += ns
	}
	return sum
}

// settle runs the deliver phase of the batch routed into the exchange
// (every destination shard merges its own inbound lanes), folds its
// stats — advancing the protocol round when advance is set — and
// attributes the batch to its destination shards' window counters.
func (e *engine) settle(advance bool) core.StepStats {
	e.pool.Run(len(e.shards), e.deliverFn)
	st := e.exch.Finish(e.s, advance)
	if e.wShardInb != nil {
		for j := range e.shards {
			e.wShardInb[j] += int64(e.exch.Delivered(j))
		}
	}
	return st
}

// countMigrations adds a settled protocol or fault-layer batch to the
// migration totals.
func (e *engine) countMigrations(st core.StepStats) {
	e.res.Migrations += int64(st.Migrations)
	e.res.MovedWeight += st.MovedWeight
	e.wMigrations += int64(st.Migrations)
}

// rebalance re-cuts the shard partition so measured per-shard phase
// cost equalises: each resource is charged its old shard's average
// cost, and par.Balance places the new boundaries. Runs every
// telemetryEvery rounds when there is more than one shard; results are
// unaffected (every phase is partition-invariant), only the work split
// moves.
func (e *engine) rebalance() {
	if len(e.shards) < 2 {
		return
	}
	total := int64(0)
	for i := range e.shards {
		total += e.shardPhaseSum(i)
	}
	if total > 0 {
		if e.costBuf == nil {
			e.costBuf = make([]float64, e.n)
		}
		for i := range e.shards {
			sh := &e.shards[i]
			avg := float64(e.shardPhaseSum(i)) / float64(sh.hi-sh.lo)
			for r := sh.lo; r < sh.hi; r++ {
				e.costBuf[r] = avg
			}
		}
		e.boundsBuf = par.Balance(e.costBuf, len(e.shards), e.boundsBuf)
		copy(e.bounds, e.boundsBuf)
		for i := range e.shards {
			e.shards[i].lo, e.shards[i].hi = e.bounds[i], e.bounds[i+1]
		}
		e.exch.SetBounds(e.bounds)
	}
}

// emitTelemetry publishes the telemetry window closing at `round`:
// per-destination-shard inbound lane totals, per-shard cost and phase
// profiles, and the engine-level sequential phase profile. Runs in the
// sequential section between rounds; resetTelemetry zeroes the
// accumulators afterwards (shared with rebalance, which reads the same
// nanos).
func (e *engine) emitTelemetry(round int) {
	if e.broker == nil {
		return
	}
	w := len(e.shards)
	if lanes := e.exch.LaneCounts(); lanes != nil {
		for j := 0; j < w; j++ {
			var in int64
			for i := 0; i < w; i++ {
				in += lanes[i*w+j]
			}
			e.ev = obs.Event{Kind: obs.KindLanes, Round: round,
				Lane: obs.LaneStats{Shard: j, Inbound: in}}
			e.broker.Publish(&e.ev)
		}
	}
	for i := range e.shards {
		sh := &e.shards[i]
		e.ev = obs.Event{Kind: obs.KindShardCost, Round: round,
			ShardCost: obs.ShardCost{Shard: i,
				ShardStat: obs.ShardStat{Lo: sh.lo, Hi: sh.hi, Nanos: e.shardPhaseSum(i)}}}
		e.broker.Publish(&e.ev)
		e.ev = obs.Event{Kind: obs.KindPhase, Round: round,
			Phase: obs.PhaseStats{Shard: i, Nanos: e.phaseNanos[i]}}
		e.broker.Publish(&e.ev)
	}
	e.ev = obs.Event{Kind: obs.KindPhase, Round: round,
		Phase: obs.PhaseStats{Shard: -1, Nanos: e.phaseNanos[w]}}
	e.broker.Publish(&e.ev)
	if e.inj != nil || e.flapCnt != nil {
		var c faults.Counters
		if e.inj != nil {
			c = e.inj.Counters()
		}
		ln, lw := e.s.InFlightLedger()
		e.ev = obs.Event{Kind: obs.KindFaults, Round: round, Faults: obs.FaultStats{
			Lost: c.Lost, Delayed: c.Delayed, Duplicated: c.Duplicated,
			Deduped: c.Deduped, Retries: c.Retries, Timeouts: c.Timeouts,
			PartitionBlocked: c.PartitionBlocked,
			Bounced:          e.res.Bounced,
			Quarantined:      int64(len(e.quarActive)),
			Ledger:           ln, LedgerWeight: lw,
		}}
		e.broker.Publish(&e.ev)
	}
}

// resetTelemetry zeroes the lane and phase accumulators after a
// telemetry report and/or rebalance consumed them.
func (e *engine) resetTelemetry() {
	e.exch.ResetLaneCounts()
	clear(e.phaseNanos)
}

// emitRecovery publishes the current recovery episode's transition.
func (e *engine) emitRecovery(kind obs.Kind, round int) {
	if e.broker == nil {
		return
	}
	e.ev = obs.Event{Kind: kind, Round: round, Recovery: obs.RecoveryEvent{
		Round: e.recCur.Round, Downs: e.recCur.Downs,
		EvacTasks: e.recCur.EvacTasks, EvacWeight: e.recCur.EvacWeight,
		BaselineOverload: e.recCur.BaselineOverload,
		PeakOverload:     e.recCur.PeakOverload,
		DrainRounds:      e.recCur.DrainRounds,
	}}
	e.broker.Publish(&e.ev)
}

// flush closes the metrics window ending at round `end`.
func (e *engine) flush(end int) {
	rounds := float64(end - e.windowStart)
	if rounds == 0 {
		return
	}
	s, up := e.s, e.up
	e.loadBuf, e.normBuf = e.loadBuf[:0], e.normBuf[:0]
	for i := 0; i < up.N(); i++ {
		e.addLoad(up.At(i))
	}
	ws := WindowStats{
		Start:          e.windowStart,
		End:            end,
		OverloadFrac:   e.wOverload / rounds,
		MigrationRate:  float64(e.wMigrations) / rounds,
		RehomeRate:     float64(e.wRehomed) / rounds,
		ArrivalRate:    float64(e.wArrivals) / rounds,
		DepartureRate:  float64(e.wDepartures) / rounds,
		InFlight:       e.ts.Live(),
		InFlightWeight: s.InFlightWeight(),
		UpResources:    up.N(),
	}
	ws.MeanLoad, ws.MaxLoad, ws.P99Load, ws.P99LoadPerSpeed = e.loadStats()
	e.res.Windows = append(e.res.Windows, ws)
	if e.broker != nil {
		e.ev = obs.Event{Kind: obs.KindWindow, Round: end, Window: ws}
		e.broker.Publish(&e.ev)
		e.ev = obs.Event{Kind: obs.KindTraceHist, Round: end, TraceHist: trace.Snapshot{
			Sojourn: e.res.Sojourn, Hops: e.res.Hops, RetryLat: e.res.RetryLat}}
		e.broker.Publish(&e.ev)
		e.emitShardWindows(end, rounds)
		e.emitDomainWindows(end)
		for i := range e.wShardArr {
			e.wShardArr[i], e.wShardDep[i], e.wShardInb[i] = 0, 0, 0
		}
	}
	e.wOverload = 0
	e.wMigrations, e.wRehomed, e.wArrivals, e.wDepartures = 0, 0, 0, 0
	e.windowStart = end
}

// addLoad appends resource r's load, and on a heterogeneous fleet its
// load per speed, to the window scratch, and returns the load.
func (e *engine) addLoad(r int) float64 {
	load := e.s.Load(r)
	e.loadBuf = append(e.loadBuf, load)
	if e.speeds != nil {
		e.normBuf = append(e.normBuf, load/e.speeds[r])
	}
	return load
}

// loadStats summarises the non-empty window scratch that addLoad
// filled: the mean load (summed in the order the caller added the
// resources), the max and p99 load, and the p99 load per speed (the p99
// load on a homogeneous fleet). It sorts the scratch in place.
func (e *engine) loadStats() (mean, max, p99, p99PerSpeed float64) {
	mean = stats.Mean(e.loadBuf)
	sort.Float64s(e.loadBuf)
	max = e.loadBuf[len(e.loadBuf)-1]
	p99 = stats.QuantileSorted(e.loadBuf, 0.99)
	if e.speeds == nil {
		return mean, max, p99, p99
	}
	sort.Float64s(e.normBuf)
	return mean, max, p99, stats.QuantileSorted(e.normBuf, 0.99)
}

// emitShardWindows publishes one ShardWindowStats event per worker
// shard for the window ending at `end`: a load snapshot over the
// shard's up resources plus the window's attributed traffic rates.
// Runs in the sequential flush section; all scratch is engine-owned,
// so emission allocates nothing.
func (e *engine) emitShardWindows(end int, rounds float64) {
	s, up := e.s, e.up
	for i := range e.shards {
		sh := &e.shards[i]
		e.loadBuf, e.normBuf = e.loadBuf[:0], e.normBuf[:0]
		inFlight, over := 0, 0
		weight := 0.0
		for r := sh.lo; r < sh.hi; r++ {
			if !up.Contains(r) {
				continue
			}
			load := e.addLoad(r)
			inFlight += s.Count(r)
			weight += load
			if s.Overloaded(r) {
				over++
			}
		}
		sws := obs.ShardWindowStats{
			Shard: i, Lo: sh.lo, Hi: sh.hi,
			Start: e.windowStart, End: end,
			ArrivalRate:    float64(e.wShardArr[i]) / rounds,
			DepartureRate:  float64(e.wShardDep[i]) / rounds,
			InboundRate:    float64(e.wShardInb[i]) / rounds,
			InFlight:       inFlight,
			InFlightWeight: weight,
			UpResources:    len(e.loadBuf),
		}
		if n := len(e.loadBuf); n > 0 {
			sws.OverloadFrac = float64(over) / float64(n)
			sws.MeanLoad, sws.MaxLoad, sws.P99Load, sws.P99LoadPerSpeed = e.loadStats()
		}
		e.ev = obs.Event{Kind: obs.KindShardWindow, Round: end, ShardWindow: sws}
		e.broker.Publish(&e.ev)
	}
}

// emitDomainWindows publishes one DomainWindowStats event per failure
// domain per configured level for the window ending at `end` — the
// per-rack/per-zone snapshot that prices what a domain loss costs.
// Level order follows Config.Domains; domains ascend within a level.
func (e *engine) emitDomainWindows(end int) {
	s, up := e.s, e.up
	for li := range e.domains {
		d := &e.domains[li]
		agg := e.domAgg[li]
		for k := range agg {
			agg[k] = domAgg{}
		}
		for r := 0; r < e.n; r++ {
			a := &agg[d.Of[r]]
			if !up.Contains(r) {
				a.down++
				continue
			}
			a.up++
			load := s.Load(r)
			a.load += load
			if load > a.max {
				a.max = load
			}
			if s.Overloaded(r) {
				a.over++
			}
		}
		for k := range agg {
			a := &agg[k]
			dws := obs.DomainWindowStats{
				Level: d.Level, Domain: k, Name: d.Names[k],
				Start: e.windowStart, End: end,
				MaxLoad:        a.max,
				InFlightWeight: a.load,
				UpResources:    a.up,
				DownResources:  a.down,
			}
			if a.up > 0 {
				dws.OverloadFrac = float64(a.over) / float64(a.up)
				dws.MeanLoad = a.load / float64(a.up)
			}
			e.ev = obs.Event{Kind: obs.KindDomainWindow, Round: end, DomainWindow: dws}
			e.broker.Publish(&e.ev)
			if e.alertCnt != nil {
				e.noteDomainAlert(li, k, &dws, end)
			}
		}
	}
}

// noteDomainAlert feeds one domain's closed window into the SLO alert
// tracker: an overload fraction above the budget extends the domain's
// consecutive-breach streak and fires a KindAlert event the window the
// streak reaches Config.AlertWindows; the first in-budget window ends
// the streak and, if an alert was firing, publishes its clear. A fully
// down domain (no up resources) reports OverloadFrac 0 and therefore
// counts as in budget — the outage is already visible through
// DownResources and the recovery events; the alert tracks overload,
// not membership. All inputs are partition-invariant, so alert streams
// replay bit-identically for every worker count.
func (e *engine) noteDomainAlert(li, k int, dws *obs.DomainWindowStats, end int) {
	cnt, active := e.alertCnt[li], e.alertActive[li]
	if dws.OverloadFrac > e.alertBudget {
		cnt[k]++
		if int(cnt[k]) == e.alertK && !active[k] {
			active[k] = true
			e.ev = obs.Event{Kind: obs.KindAlert, Round: end, Alert: obs.AlertEvent{
				Level: dws.Level, Domain: k, Name: dws.Name,
				OverloadFrac: dws.OverloadFrac, Budget: e.alertBudget,
				Windows: int(cnt[k]),
			}}
			e.broker.Publish(&e.ev)
		}
		return
	}
	if active[k] {
		active[k] = false
		e.ev = obs.Event{Kind: obs.KindAlert, Round: end, Alert: obs.AlertEvent{
			Level: dws.Level, Domain: k, Name: dws.Name,
			OverloadFrac: dws.OverloadFrac, Budget: e.alertBudget,
			Windows: int(cnt[k]), Cleared: true,
		}}
		e.broker.Publish(&e.ev)
	}
	cnt[k] = 0
}
