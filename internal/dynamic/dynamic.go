// Package dynamic is the open-system simulation engine layered on
// internal/core: instead of placing m tasks once and balancing until
// quiescence (the paper's closed setting), a round-based event loop
// feeds the threshold protocols a living system —
//
//  1. resource churn: machines leave (their tasks are re-homed) and
//     rejoin,
//  2. arrivals: weighted tasks enter via a pluggable arrival process
//     (Poisson, periodic bursts, a replayed trace) and are routed by a
//     dispatch policy (uniform, hotspot ingress, power-of-d),
//  3. service: tasks receive service and depart (service time
//     proportional to weight, or geometric lifetimes),
//  4. self-tuning: thresholds are re-estimated online from decaying
//     load averages spread by diffusion (no global knowledge), and
//  5. migration: one round of the paper's protocols
//     (resource-controlled, user-controlled, mixed) runs against the
//     current thresholds.
//
// This is the regime of Goldsztajn et al., "Self-Learning
// Threshold-Based Load Balancing", and of Hoefer–Sauerwald's dynamic
// threshold games, grafted onto the weighted-task protocols of the
// source paper. Runs are fully deterministic per seed: every actor
// draws from its own split RNG stream.
package dynamic

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Churn configures resource join/leave dynamics. Each round at most
// one resource leaves stochastically (probability LeaveProb, never
// below MinUp up resources) and at most one rejoins (probability
// JoinProb); Events additionally scripts mass join/leave bursts — a
// whole rack failing in one round. A leaving resource's tasks are
// immediately re-homed to uniformly random up resources (each lost
// resource draws destinations from its own deterministic re-home
// stream, so evacuation shards like every other phase); total
// in-flight weight is conserved across all events.
type Churn struct {
	LeaveProb float64      // per-round probability one up resource leaves
	JoinProb  float64      // per-round probability one down resource rejoins
	MinUp     int          // floor on up resources; 0 means 1
	Events    []ChurnEvent // scripted mass join/leave bursts
}

// ChurnEvent is one scripted churn burst: at round Round (and, when
// Every > 0, every Every rounds after it) the resources named in
// DownList plus Down uniformly random up resources fail simultaneously,
// and the resources named in UpList plus Up uniformly random down
// resources rejoin. Failures respect Churn.MinUp; rejoins are capped by
// the down population. Mass failures (thousands of departures in one
// round) exercise the engine's parallel evacuation path.
//
// The lists are how correlated, topology-aware failures enter the
// engine: recovery.FailureModel compiles per-rack MTBF/MTTR processes
// down to one-shot events whose DownList is a whole rack. Listed
// transitions are validated at config time (see ValidateEvents): a
// schedule that kills an already-down resource or revives an already-up
// one is rejected before the run starts. At run time a listed
// transition that has become moot — the stochastic churn already took
// the machine down, or MinUp leaves no headroom — is skipped rather
// than counted.
type ChurnEvent struct {
	Round    int   // first round at which the event fires (0-based)
	Every    int   // repeat period in rounds; 0 fires exactly once
	Down     int   // up resources failing together, chosen uniformly
	Up       int   // down resources rejoining together, chosen uniformly
	DownList []int // specific resources failing together
	UpList   []int // specific resources rejoining together
}

// fires reports whether the event is due at round t.
func (ev ChurnEvent) fires(t int) bool {
	if ev.Every <= 0 {
		return t == ev.Round
	}
	return t >= ev.Round && (t-ev.Round)%ev.Every == 0
}

// EventError locates a churn-schedule inconsistency: Event indexes the
// offending entry of ChurnSpec.Events, Round is the firing at which the
// schedule contradicts itself. The event loader translates Event back
// into a source line number.
type EventError struct {
	Event int // index into the events slice
	Round int // firing round of the conflict
	Msg   string
}

func (e *EventError) Error() string {
	return fmt.Sprintf("dynamic: churn event %d: round %d: %s", e.Event, e.Round, e.Msg)
}

// maxValidateFirings bounds the timeline simulation of ValidateEvents:
// one-shot schedules (the recovery compiler's output) are always
// checked exactly; a repeating listed schedule is checked over its
// first maxValidateFirings firings, which covers many full periods of
// any realistic configuration.
const maxValidateFirings = 10_000

// ValidateEvents checks a scripted churn schedule for internal
// consistency: list entries must lie in [0, n), no list may repeat a
// resource, no event may both kill and revive the same resource, and —
// simulating the firings in engine order (all kills of a round, then
// all rejoins) over the first `rounds` rounds — no firing may kill a
// resource the schedule has already downed or revive one it has not.
// Stochastic churn cannot be foreseen here, so the simulation assumes
// only scripted transitions; the engine absorbs runtime conflicts that
// arise from mixing lists with LeaveProb/JoinProb. Returns an
// *EventError naming the offending event and round.
func ValidateEvents(events []ChurnEvent, n, rounds int) error {
	listed := false
	for i, ev := range events {
		if ev.Round < 0 || ev.Every < 0 || ev.Down < 0 || ev.Up < 0 {
			return &EventError{Event: i, Round: ev.Round,
				Msg: fmt.Sprintf("negative fields: %+v", ev)}
		}
		if len(ev.DownList) == 0 && len(ev.UpList) == 0 {
			continue
		}
		listed = true
		seen := make(map[int]int8, len(ev.DownList)+len(ev.UpList))
		for _, r := range ev.DownList {
			if r < 0 || r >= n {
				return &EventError{Event: i, Round: ev.Round,
					Msg: fmt.Sprintf("down-list resource %d out of range [0, %d)", r, n)}
			}
			if seen[r] != 0 {
				return &EventError{Event: i, Round: ev.Round,
					Msg: fmt.Sprintf("down list repeats resource %d", r)}
			}
			seen[r] = 1
		}
		for _, r := range ev.UpList {
			if r < 0 || r >= n {
				return &EventError{Event: i, Round: ev.Round,
					Msg: fmt.Sprintf("up-list resource %d out of range [0, %d)", r, n)}
			}
			switch seen[r] {
			case 1:
				return &EventError{Event: i, Round: ev.Round,
					Msg: fmt.Sprintf("resource %d appears in both the down and the up list", r)}
			case 2:
				return &EventError{Event: i, Round: ev.Round,
					Msg: fmt.Sprintf("up list repeats resource %d", r)}
			}
			seen[r] = 2
		}
	}
	if !listed {
		return nil // purely random schedules cannot self-conflict
	}

	// Timeline simulation over the listed resources: collect the firing
	// rounds of listed events (capped per event), walk them in ascending
	// order, and within a round apply every event's kills (slice order),
	// then every event's rejoins — the engine's order.
	firingSet := make(map[int]struct{})
	for _, ev := range events {
		if len(ev.DownList) == 0 && len(ev.UpList) == 0 {
			continue
		}
		if ev.Every <= 0 {
			if ev.Round < rounds {
				firingSet[ev.Round] = struct{}{}
			}
			continue
		}
		cnt := 0
		for t := ev.Round; t < rounds && cnt < maxValidateFirings; t += ev.Every {
			firingSet[t] = struct{}{}
			cnt++
			if t > rounds-ev.Every {
				break // the next firing would overflow past the horizon
			}
		}
	}
	firings := make([]int, 0, len(firingSet))
	for t := range firingSet {
		firings = append(firings, t)
	}
	sort.Ints(firings)
	down := make(map[int]bool)
	for _, t := range firings {
		for i, ev := range events {
			if !ev.fires(t) {
				continue
			}
			for _, r := range ev.DownList {
				if down[r] {
					return &EventError{Event: i, Round: t,
						Msg: fmt.Sprintf("kills resource %d, which the schedule already downed", r)}
				}
				down[r] = true
			}
		}
		for i, ev := range events {
			if !ev.fires(t) {
				continue
			}
			for _, r := range ev.UpList {
				if !down[r] {
					return &EventError{Event: i, Round: t,
						Msg: fmt.Sprintf("revives resource %d, which the schedule never downed", r)}
				}
				delete(down, r)
			}
		}
	}
	return nil
}

func (c Churn) enabled() bool {
	return c.LeaveProb > 0 || c.JoinProb > 0 || len(c.Events) > 0
}

// Quarantine configures the flapping-resource hold-down: a resource
// whose churn transitions (up↔down, in either direction) reach Flaps
// within one tumbling Window is held down for Cooloff rounds — its
// rejoin deferred until the hold expires — so a link or machine that
// oscillates stops churning the balancer with evacuation/rejoin storms.
// The hysteresis is the hold itself: once quarantined, further flaps
// cannot retrigger until the resource has actually rejoined. The zero
// value disables quarantining.
type Quarantine struct {
	Flaps   int // transitions within Window that trigger the hold; 0 disables
	Window  int // tumbling flap-count window in rounds (default 50)
	Cooloff int // hold-down duration in rounds (default 100)
}

// withDefaults fills the window and cool-off defaults of an enabled
// config.
func (q Quarantine) withDefaults() Quarantine {
	if q.Flaps <= 0 {
		return q
	}
	if q.Window <= 0 {
		q.Window = 50
	}
	if q.Cooloff <= 0 {
		q.Cooloff = 100
	}
	return q
}

func (q Quarantine) enabled() bool { return q.Flaps > 0 }

// Config describes one open-system run.
type Config struct {
	// Graph is the resource topology (required).
	Graph *graph.Graph
	// Speeds is the per-resource speed profile of a heterogeneous
	// fleet: resource r serves work at s_r times the unit rate, its
	// self-tuned threshold converges to the speed-proportional target
	// (1+ε)·(W/S_up)·s_r + wmax (core.Proportional restricted to the
	// up capacity), and load-aware dispatch compares load-per-speed.
	// All speeds must be positive and finite, and the slice length must
	// equal the resource count. nil means a homogeneous fleet (all 1),
	// which replays bit-identically to the pre-speed engine. Resources
	// keep their speed across churn — a rejoining machine comes back at
	// its own capacity, so S_up moves with the churn.
	Speeds []float64
	// Protocol is the per-round migration rule (required).
	Protocol core.Protocol
	// Arrivals is the arrival process (required).
	Arrivals Arrivals
	// Service is the departure discipline (required).
	Service Service
	// Dispatch routes arrivals; nil means UniformDispatch. A policy
	// that tracks the up set (a RehomeObserver) can only re-home.
	Dispatch Dispatch
	// Rehome picks the destination of every task evacuated off a failed
	// resource; nil means UniformDispatch. Policies draw only from the
	// failed resource's per-resource stream, so every policy keeps the
	// cross-worker determinism guarantee.
	Rehome Dispatch
	// Tuner refreshes thresholds online (required).
	Tuner Tuner
	// Churn enables resource join/leave; the zero value disables it.
	Churn Churn
	// Faults configures the deterministic message-fault layer between
	// the propose and deliver phases: per-message loss (with an
	// in-flight retry ledger, capped exponential backoff and a
	// re-home-at-source timeout), bounded delays (a delay wheel
	// delivering k rounds late in canonical order), duplication (deduped
	// by flight token on arrival) and scripted partition windows (cut
	// migrations bounce to their source; dispatch and the tuner see only
	// the reachable component). All draws are stateless keyed hashes of
	// (task, round, attempt), so faulty runs replay bit-identically for
	// every worker count. nil — or a plan with all probabilities zero
	// and no partitions — injects nothing and keeps the fault-free hot
	// path byte-identical and allocation-free.
	Faults *faults.Plan
	// Quarantine enables the flapping-resource hold-down; the zero value
	// disables it.
	Quarantine Quarantine
	// Rounds is the number of simulated rounds (required, > 0).
	Rounds int
	// Window is the metrics window length in rounds; 0 means 100.
	Window int
	// Seed fixes all randomness.
	Seed uint64
	// Workers shards the round pipeline (service, tuner sweeps,
	// protocol propose, migration delivery, churn evacuation) across a
	// persistent worker pool; ≤ 1 runs sequentially. Results are
	// bit-identical for every worker count: all randomness is drawn
	// from per-resource or sequential engine streams, cross-shard
	// effects merge in canonical (destination, task ID) order, and
	// float reductions always run in the same order. With more than
	// one worker the engine times every shard phase and, every 64
	// rounds, moves the shard boundaries so observed per-shard round
	// nanos equalise (skewed workloads stop bottlenecking on one
	// worker); boundary placement never affects results, only the work
	// split.
	Workers int
	// InitialWeights optionally pre-populates the system; paired with
	// InitialPlacement (task → resource; nil places all on resource 0).
	InitialWeights   []float64
	InitialPlacement []int
	// CheckInvariants validates conservation after every round (slow;
	// tests only).
	CheckInvariants bool
	// OnRound, if non-nil, runs after every completed round with the
	// live state (read-only use expected).
	OnRound func(round int, s *core.State)
	// Obs, if non-nil, streams typed telemetry events into the given
	// broker: fleet / per-shard / per-domain window statistics at the
	// Window cadence, exchange lane occupancy, per-shard phase timings
	// and shard costs every 64 rounds, and recovery-episode
	// transitions as they happen. Events are snapshot copies published
	// from the engine's sequential sections — they never feed back into
	// the run, so replay stays bit-identical for every worker count
	// with any number of subscribers attached, and publishing into the
	// broker's pre-sized rings keeps steady-state rounds at 0 allocs.
	Obs *obs.Broker
	// Domains optionally labels every resource with failure domains
	// (one entry per hierarchy level, e.g. racks then zones) for
	// per-domain window events on the Obs broker. Ignored when Obs is
	// nil; validated against the resource count.
	Domains []obs.Domains
	// AlertBudget enables domain-level SLO alerting: when a failure
	// domain's windowed overload fraction exceeds the budget for
	// AlertWindows consecutive metrics windows, the engine publishes a
	// KindAlert event for that domain (and a matching Cleared event the
	// first window it returns to budget). 0 disables alerting; requires
	// Obs and Domains to have any effect. Must lie in [0, 1).
	AlertBudget float64
	// AlertWindows is the consecutive-window count K a breach must
	// persist before the alert fires; 0 selects 1 (alert on the first
	// over-budget window).
	AlertWindows int
	// CheckpointEvery, when > 0, snapshots the complete engine state
	// every CheckpointEvery rounds (at the round boundary, after the
	// window flush and telemetry hooks) and hands the encoded snapshot
	// to OnCheckpoint. A run resumed from any such snapshot (see Resume)
	// finishes byte-identical to the uninterrupted run, for every worker
	// count, including under active fault plans.
	CheckpointEvery int
	// OnCheckpoint receives each completed checkpoint: the boundary
	// round the snapshot captured and the encoded bytes. The slice
	// aliases an engine-owned buffer reused across checkpoints — copy or
	// write it out before returning. A non-nil error aborts the run.
	OnCheckpoint func(round int, data []byte) error
	// CrashAfterRound, when > 0, makes the run return ErrCrashed after
	// completing that many rounds (after the boundary's checkpoint, if
	// one is due) — the crash-injection hook of the recovery test
	// harness and lbdyn's -crash-at-round flag.
	CrashAfterRound int
	// TraceSample, in [0, 1], is the task-lifecycle sampling rate:
	// each task is traced iff a stateless hash of (trace seed, task ID)
	// falls below it, so the traced set never depends on the shard
	// partition and a traced run's Result stays bit-identical to the
	// untraced run. Sampled tasks publish KindTrace records (arrival,
	// every migration hop with its cause, fault losses/retries,
	// departure) on the Obs broker in canonical order. 0 disables record
	// emission and keeps the hot path allocation-free; the sojourn /
	// hops / retry-latency histograms in Result are maintained
	// regardless. Requires Obs to have any effect.
	TraceSample float64
	// TraceSeed decorrelates the sampled-task set from the run's other
	// randomness; two runs with the same Seed but different TraceSeeds
	// trace different tasks while producing identical Results.
	TraceSeed uint64
}

// WindowStats summarises one metrics window of an open-system run.
// The type lives in internal/obs (it doubles as the fleet window event
// payload); the alias keeps the engine's public surface unchanged. See
// obs.WindowStats for field-level documentation, and
// obs.ShardWindowStats for the per-shard variant streamed over
// Config.Obs.
type WindowStats = obs.WindowStats

// RecoveryStat reports one failure-recovery episode: a round in which
// a SCRIPTED ChurnEvent took resources down opens an episode, and the
// episode closes when the overload fraction first returns to its
// pre-failure baseline (drained) or when the next failure round or the
// run's end cuts it short (censored). Per-round stochastic churn
// (Churn.LeaveProb) never opens episodes — under continuous churn
// every round would, flooding Recoveries with censored one-machine
// noise and growing it without bound on long runs. All fields derive
// from partition-invariant quantities, so episodes are bit-identical
// for every worker count.
type RecoveryStat struct {
	Round            int     // round the failure hit
	Downs            int     // resources lost in that round
	EvacTasks        int64   // tasks re-homed by the failure round's evacuations
	EvacWeight       float64 // weight of those re-homes (evacuation migration load)
	BaselineOverload float64 // overload fraction of the round before the failure
	PeakOverload     float64 // max per-round overload fraction during the episode
	// DrainRounds counts rounds from the failure until the overload
	// fraction first returned to the baseline (0 = drained within the
	// failure round itself); −1 marks a censored episode.
	DrainRounds int
}

// Drained reports whether the episode closed by returning to its
// pre-failure overload baseline (rather than being cut short).
func (rs RecoveryStat) Drained() bool { return rs.DrainRounds >= 0 }

// Result reports a completed open-system run.
type Result struct {
	Rounds         int
	Arrived        int64
	Departed       int64
	ArrivedWeight  float64
	DepartedWeight float64
	Migrations     int64   // protocol-driven moves (late fault-layer deliveries included)
	MovedWeight    float64 // weight of protocol-driven moves
	Rehomed        int64   // churn evacuations + bounced deliveries
	RehomedWeight  float64 // weight of churn evacuations + bounced deliveries
	Downs, Ups     int     // churn events
	Recoveries     []RecoveryStat
	Windows        []WindowStats
	FinalInFlight  int
	FinalWeight    float64

	// Message-fault layer totals (all zero on fault-free runs; every
	// field is worker-count invariant).
	Lost             int64 // messages lost on first send
	Delayed          int64 // messages parked in the delay wheel
	Duplicated       int64 // duplicate copies spawned
	Deduped          int64 // duplicate copies dropped on arrival
	Retries          int64 // ledger retry attempts
	Timeouts         int64 // ledger tasks that re-homed at their source
	PartitionBlocked int64 // migrations bounced at a partition cut
	// Bounced counts step-6 re-homes — deliveries that landed on a down
	// resource (a subset of Rehomed, which also holds churn evacuations).
	Bounced       int64
	BouncedWeight float64
	// Quarantined counts flapping-resource hold-downs entered;
	// FinalLedger/FinalLedgerWeight are the in-flight residue (lost or
	// delayed messages still undelivered) at run end.
	Quarantined       int
	FinalLedger       int
	FinalLedgerWeight float64

	// Always-on task-lifecycle histograms over the fixed power-of-two
	// ladder (trace.Bounds): rounds from arrival to departure and
	// migration hops per task, both observed at every departure, and
	// the rounds a lost migration spent in the retry ledger before it
	// resolved (retry success or timeout). Every observation is an
	// integer increment made in canonical order, so the histograms are
	// bit-identical for every worker count and ride the same golden
	// and checkpoint guarantees as the scalar totals.
	Sojourn  trace.Hist
	Hops     trace.Hist
	RetryLat trace.Hist
}

// PeakPostFailureOverload returns the worst per-round overload
// fraction observed across all recovery episodes — the headline
// post-failure transient figure. NaN with no episodes.
func (r Result) PeakPostFailureOverload() float64 {
	if len(r.Recoveries) == 0 {
		return math.NaN()
	}
	peak := 0.0
	for _, rs := range r.Recoveries {
		if rs.PeakOverload > peak {
			peak = rs.PeakOverload
		}
	}
	return peak
}

// MeanDrainRounds averages the time-to-drain-overload over the drained
// (non-censored) recovery episodes. NaN with no drained episodes.
func (r Result) MeanDrainRounds() float64 {
	sum, n := 0.0, 0
	for _, rs := range r.Recoveries {
		if rs.Drained() {
			sum += float64(rs.DrainRounds)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// TailOverloadFrac averages the windowed overload fraction over the
// windows after the first skip ones — the steady-state figure once the
// warm-up transient is discarded. Returns NaN with no such windows.
func (r Result) TailOverloadFrac(skip int) float64 {
	if skip < 0 || skip >= len(r.Windows) {
		return math.NaN()
	}
	sum := 0.0
	for _, w := range r.Windows[skip:] {
		sum += w.OverloadFrac
	}
	return sum / float64(len(r.Windows)-skip)
}

// Run executes the open-system simulation described by cfg on the
// sharded round pipeline (see engine.go). For any Config.Workers the
// Result — WindowStats and float totals included — is bit-identical to
// the sequential Workers = 1 execution.
func Run(cfg Config) (Result, error) {
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	e := newEngine(cfg)
	defer e.close()
	return e.run()
}

// checkConservation validates the open-system weight balance
// W(t) = W(0) + arrived − departed and the core stack/location/set
// invariants.
func checkConservation(s *core.State, initialWeight float64, res Result) error {
	if err := s.CheckInvariants(); err != nil {
		return err
	}
	want := initialWeight + res.ArrivedWeight - res.DepartedWeight
	got := s.InFlightWeight()
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		return fmt.Errorf("in-flight weight %v != arrived−departed balance %v", got, want)
	}
	return nil
}

func validate(cfg Config) error {
	switch {
	case cfg.Graph == nil:
		return errors.New("dynamic: Config.Graph is required")
	case cfg.Graph.N() == 0:
		return errors.New("dynamic: graph has no resources")
	case cfg.Protocol == nil:
		return errors.New("dynamic: Config.Protocol is required")
	case cfg.Arrivals == nil:
		return errors.New("dynamic: Config.Arrivals is required")
	case cfg.Service == nil:
		return errors.New("dynamic: Config.Service is required")
	case cfg.Tuner == nil:
		return errors.New("dynamic: Config.Tuner is required")
	case cfg.Rounds <= 0:
		return errors.New("dynamic: Config.Rounds must be > 0")
	case cfg.Churn.LeaveProb < 0 || cfg.Churn.LeaveProb > 1 ||
		cfg.Churn.JoinProb < 0 || cfg.Churn.JoinProb > 1:
		return errors.New("dynamic: churn probabilities must be in [0,1]")
	case cfg.Churn.MinUp > cfg.Graph.N():
		return errors.New("dynamic: Churn.MinUp exceeds the number of resources")
	}
	if cfg.Speeds != nil {
		if len(cfg.Speeds) != cfg.Graph.N() {
			return fmt.Errorf("dynamic: Config.Speeds has %d entries for %d resources",
				len(cfg.Speeds), cfg.Graph.N())
		}
		for r, s := range cfg.Speeds {
			if !ValidSpeed(s) {
				return fmt.Errorf("dynamic: speed %v of resource %d must be positive and finite", s, r)
			}
		}
	}
	if err := ValidateEvents(cfg.Churn.Events, cfg.Graph.N(), cfg.Rounds); err != nil {
		return err
	}
	if cfg.Faults.Active() {
		if err := cfg.Faults.Validate(cfg.Graph.N()); err != nil {
			return fmt.Errorf("dynamic: %w", err)
		}
	}
	if q := cfg.Quarantine; q.Flaps < 0 || q.Window < 0 || q.Cooloff < 0 {
		return fmt.Errorf("dynamic: Config.Quarantine fields must be non-negative (%+v)", q)
	}
	if cfg.AlertBudget < 0 || cfg.AlertBudget >= 1 {
		if cfg.AlertBudget != 0 {
			return fmt.Errorf("dynamic: Config.AlertBudget %v must lie in [0, 1)", cfg.AlertBudget)
		}
	}
	if cfg.AlertWindows < 0 {
		return fmt.Errorf("dynamic: Config.AlertWindows %d must be non-negative", cfg.AlertWindows)
	}
	if cfg.CheckpointEvery < 0 {
		return fmt.Errorf("dynamic: Config.CheckpointEvery %d must be non-negative", cfg.CheckpointEvery)
	}
	if cfg.CrashAfterRound < 0 || cfg.CrashAfterRound > cfg.Rounds {
		return fmt.Errorf("dynamic: Config.CrashAfterRound %d must lie in [0, Rounds]", cfg.CrashAfterRound)
	}
	if cfg.TraceSample < 0 || cfg.TraceSample > 1 {
		return fmt.Errorf("dynamic: Config.TraceSample %v must lie in [0, 1]", cfg.TraceSample)
	}
	for i, d := range cfg.Domains {
		if err := d.Validate(cfg.Graph.N()); err != nil {
			return fmt.Errorf("dynamic: Config.Domains[%d]: %w", i, err)
		}
	}
	if cfg.InitialPlacement != nil && len(cfg.InitialPlacement) != len(cfg.InitialWeights) {
		return fmt.Errorf("dynamic: initial placement has %d entries for %d tasks",
			len(cfg.InitialPlacement), len(cfg.InitialWeights))
	}
	for i, r := range cfg.InitialPlacement {
		if r < 0 || r >= cfg.Graph.N() {
			return fmt.Errorf("dynamic: initial task %d placed on invalid resource %d", i, r)
		}
	}
	if _, ok := cfg.Dispatch.(RehomeObserver); ok {
		return fmt.Errorf("dynamic: Config.Dispatch %s tracks the up set, which only the re-home slot hears of; set it as Config.Rehome", cfg.Dispatch.Name())
	}
	// Pluggable components check their own parameters up front, so a bad
	// rate or probability is a config error, not a mid-run panic.
	// ValidateFor additionally hands size-dependent components (a
	// topology-backed re-home policy) the resource count they must
	// cover.
	for _, c := range []any{cfg.Protocol, cfg.Arrivals, cfg.Service, cfg.Dispatch, cfg.Rehome, cfg.Tuner} {
		if v, ok := c.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return err
			}
		}
		if v, ok := c.(interface{ ValidateFor(n int) error }); ok {
			if err := v.ValidateFor(cfg.Graph.N()); err != nil {
				return err
			}
		}
	}
	return nil
}
