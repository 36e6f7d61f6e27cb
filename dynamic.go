package thresholdlb

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/snapshot"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/walk"
)

// This file is the public face of the open-system engine
// (internal/dynamic): continuous task arrivals and departures, resource
// churn, and thresholds re-estimated online — the regime of
// Goldsztajn et al.'s self-learning threshold balancing, layered on the
// source paper's migration protocols.

// DynamicResult reports a completed open-system run: totals plus one
// WindowStats per metrics window.
type DynamicResult = dynamic.Result

// WindowStats summarises one metrics window (time-averaged overload
// fraction, migration rate, p99 load, in-flight weight, …).
type WindowStats = dynamic.WindowStats

// Arrivals is a pluggable arrival process (see PoissonArrivals,
// BurstArrivals, TraceArrivals).
type Arrivals = dynamic.Arrivals

// Service is a pluggable departure discipline (see
// WeightProportionalService, GeometricService).
type Service = dynamic.Service

// Dispatch places tasks on resources. One set of policies fills both
// placement slots: DynamicScenario.Dispatch routes arrivals (see
// UniformDispatch, HotspotDispatch, PowerOfDDispatch,
// SpeedWeightedDispatch) and DynamicScenario.Rehome lands each task
// evacuated off a failed resource (see UniformRehome, PowerOfDRehome,
// SpeedWeightedRehome, and LocalityRehome, which only re-homes). A
// re-home draws only from the failed resource's deterministic stream,
// so runs stay bit-identical for any worker count.
type Dispatch = dynamic.Dispatch

// ChurnSpec configures resource join/leave dynamics; the zero value
// disables churn.
type ChurnSpec = dynamic.Churn

// ChurnEvent scripts one mass join/leave burst (e.g. a rack loss:
// thousands of simultaneous failures in one round, evacuated through
// the engine's sharded exchange); add events to ChurnSpec.Events.
// DownList/UpList name specific resources — the form FailureModel
// compiles to — and list schedules are validated at config time
// (killing an already-down resource or reviving an already-up one is
// rejected before the run).
type ChurnEvent = dynamic.ChurnEvent

// RecoveryStat reports one failure-recovery episode of a dynamic run:
// the failure round, how many resources died, the evacuation migration
// load, and the overload transient (pre-failure baseline, peak, and
// time-to-drain back to the baseline). See DynamicResult.Recoveries.
type RecoveryStat = dynamic.RecoveryStat

// Topology is a resource → rack → zone failure-domain hierarchy: the
// blast-radius model for correlated failures (FailureModel) and the
// locality structure for topology-aware re-homing (LocalityRehome).
// Build one with SynthTopology or LoadTopology.
type Topology = recovery.Topology

// FailureModel describes correlated stochastic failure/repair
// processes over a Topology — whole-rack losses (RackMTBF/RackMTTR),
// independent machine churn (ResourceMTBF/ResourceMTTR), and flapping
// machines (FlapResources, FlapMTBF/FlapMTTR). Compile(rounds, seed)
// turns it into the one-shot ChurnEvent schedule a DynamicScenario
// replays deterministically.
type FailureModel = recovery.FailureModel

// SynthTopology builds a synthetic fleet: n resources in `racks`
// contiguous equal-ish racks, grouped into `zones` zones.
func SynthTopology(n, racks, zones int) (*Topology, error) {
	return recovery.Synth(n, racks, zones)
}

// LoadTopology reads an n-resource failure-domain inventory: .csv
// holds resource,rack,zone rows, .jsonl/.ndjson/.json holds rack
// definitions {"rack":"r1","zone":"z1"} and assignments
// {"resource":0,"rack":"r1"} one per line. Every resource must be
// assigned exactly once, racks live in exactly one zone, the
// rack/zone namespaces must be disjoint (cycle-free hierarchy), and
// errors carry line numbers.
func LoadTopology(path string, n int) (*Topology, error) {
	return recovery.LoadTopologyFile(path, n)
}

// LoadChurnEvents reads a scripted churn-event schedule for an
// n-resource system: .csv holds round,every,down,up rows,
// .jsonl/.ndjson/.json holds one event object per line with optional
// down_list/up_list resource arrays. The full schedule validation runs
// at load time with line-numbered errors.
func LoadChurnEvents(path string, n int) ([]ChurnEvent, error) {
	return dynamic.LoadEventsFile(path, n)
}

// FaultPlan configures the deterministic message-fault layer of a
// dynamic run: per-message loss (lost migrations enter an in-flight
// ledger and retry with capped exponential backoff until a timeout
// re-homes them at their source), bounded delays (delivery k rounds
// late in canonical order), duplication (late copies deduped on
// arrival), and scripted partition windows (cut migrations bounce to
// their source while dispatch and the threshold tuner see only the
// reachable component). Every decision is a stateless keyed draw, so
// faulty runs replay bit-identically for every worker count. The zero
// value injects nothing.
type FaultPlan = faults.Plan

// FaultPartition scripts one connectivity window of a FaultPlan: during
// rounds [Start, End) the member resources form their own network
// component.
type FaultPartition = faults.Partition

// QuarantineSpec configures the flapping-resource hold-down: a resource
// whose churn transitions reach Flaps within a tumbling Window is held
// down for Cooloff rounds, its rejoin deferred until the hold expires.
// The zero value disables quarantining.
type QuarantineSpec = dynamic.Quarantine

// LoadFaultPlan reads a fault plan for an n-resource system: .csv holds
// kind,a,b,c directives (loss,P · delay,P,MAX · dup,P ·
// retry,BASE,CAP,TIMEOUT · seed,S · partition,START,END,MEMBERS with
// members as ranges "0-99;256"), .jsonl/.ndjson/.json holds one
// directive object per line. The full plan validation runs at load time
// with line-numbered errors.
func LoadFaultPlan(path string, n int) (*FaultPlan, error) {
	return faults.LoadPlanFile(path, n, nil)
}

// PartitionRack builds the partition window that cuts one topology rack
// off the fleet during rounds [start, end).
func PartitionRack(topo *Topology, rack, start, end int) FaultPartition {
	return FaultPartition{Start: start, End: end, Members: topo.RackList(rack, nil)}
}

// PartitionZone builds the partition window that cuts one topology zone
// off the fleet during rounds [start, end) — the zone-level sibling of
// PartitionRack (a zone loss is the classic cloud incident shape).
func PartitionZone(topo *Topology, zone, start, end int) FaultPartition {
	return FaultPartition{Start: start, End: end, Members: topo.ZoneList(zone, nil)}
}

// LoadFaultPlanTopo is LoadFaultPlan with the topology's rack and zone
// names resolvable in partition member lists: a directive may say
// "partition,100,200,rack3" or mix names with index ranges
// ("0-15;zone1").
func LoadFaultPlanTopo(path string, n int, topo *Topology) (*FaultPlan, error) {
	return faults.LoadPlanFile(path, n, topo.Resolve)
}

// UniformRehome re-homes each evacuated task to a uniformly random up
// resource — the engine's default (and original) evacuation rule.
func UniformRehome() Dispatch { return dynamic.UniformDispatch{} }

// PowerOfDRehome samples d up resources per evacuated task and lands
// it on the least loaded (by load-per-speed on heterogeneous fleets) —
// load-aware failure recovery.
func PowerOfDRehome(d int) Dispatch { return dynamic.PowerOfD{D: d} }

// LocalityRehome re-homes evacuees topology-aware: same rack first,
// then same zone, then anywhere up. It tracks the up set, which only
// the re-home slot hears of, so it cannot dispatch arrivals. Use a
// fresh value per concurrent run.
func LocalityRehome(topo *Topology) Dispatch { return &recovery.Locality{Topo: topo} }

// SpeedWeightedRehome re-homes each evacuee to an up resource drawn
// with probability proportional to its speed — fast machines absorb
// more of a dead rack. Equals UniformRehome on homogeneous fleets.
func SpeedWeightedRehome() Dispatch { return &dynamic.SpeedWeighted{} }

// ShardStat reports one worker shard's resource range and measured
// phase cost — the payload of the KindShardCost events that
// measured-cost shard sizing publishes.
type ShardStat = obs.ShardStat

// ObsBroker is the streaming observability broker: a bounded
// ring-buffer pub/sub fabric carrying a dynamic run's typed telemetry
// events (fleet / per-shard / per-domain window statistics, exchange
// lane occupancy, per-shard phase timings, recovery episodes). Attach
// one via DynamicScenario.Subscribe (or set DynamicScenario.Obs) and
// drain subscriptions with Poll (non-blocking) or Wait (blocking).
// Publishing never blocks or allocates — a slow subscriber loses
// events per its drop policy, counted on the subscription — so the
// engine's zero-alloc and bit-for-bit determinism invariants hold with
// any number of subscribers attached.
type ObsBroker = obs.Broker

// ObsEvent is one typed telemetry event; ObsEvent.Kind selects the
// payload field.
type ObsEvent = obs.Event

// ObsSubscription is one subscriber's bounded view of the event
// stream.
type ObsSubscription = obs.Subscription

// ObsSubOptions configures a subscription: ring capacity, an optional
// kind filter (obs.Mask), and the drop policy for a full ring.
type ObsSubOptions = obs.SubOptions

// DomainLabels labels every resource with a failure domain on one
// hierarchy level (racks, zones) for per-domain window events; build
// them from a Topology with ObsDomains.
type DomainLabels = obs.Domains

// NewObsBroker returns an empty observability broker to share between
// a DynamicScenario and export surfaces.
func NewObsBroker() *ObsBroker { return obs.NewBroker() }

// ObsDomains converts a Topology into per-level domain labellings
// (level "rack", then level "zone") for DynamicScenario.Domains.
func ObsDomains(topo *Topology) []DomainLabels { return topo.ObsDomains() }

// ObsKind discriminates telemetry event payloads; ObsKindMask filters
// a subscription down to the kinds it wants (zero mask = all kinds).
type (
	ObsKind     = obs.Kind
	ObsKindMask = obs.KindMask
)

// The event taxonomy: fleet, per-shard and per-failure-domain window
// statistics, exchange lane occupancy, per-shard measured cost,
// per-phase wall-clock profiles, recovery-episode transitions,
// cumulative message-fault counters, and quarantine transitions.
const (
	KindWindow        = obs.KindWindow
	KindShardWindow   = obs.KindShardWindow
	KindDomainWindow  = obs.KindDomainWindow
	KindLanes         = obs.KindLanes
	KindShardCost     = obs.KindShardCost
	KindPhase         = obs.KindPhase
	KindRecoveryStart = obs.KindRecoveryStart
	KindRecoveryEnd   = obs.KindRecoveryEnd
	KindFaults        = obs.KindFaults
	KindQuarantine    = obs.KindQuarantine
	KindAlert         = obs.KindAlert
	KindCheckpoint    = obs.KindCheckpoint
	KindTrace         = obs.KindTrace
	KindTraceHist     = obs.KindTraceHist
)

// FaultStats is the cumulative message-fault snapshot carried by
// KindFaults events; QuarantineEvent is the per-transition payload of
// KindQuarantine events; AlertEvent is the domain SLO alert payload of
// KindAlert events; CheckpointEvent announces each written checkpoint
// on KindCheckpoint events.
type (
	FaultStats      = obs.FaultStats
	QuarantineEvent = obs.QuarantineEvent
	AlertEvent      = obs.AlertEvent
	CheckpointEvent = obs.CheckpointEvent
)

// ObsMask builds a subscription kind filter from event kinds.
func ObsMask(kinds ...ObsKind) ObsKindMask { return obs.Mask(kinds...) }

// ShardWindowStats and DomainWindowStats are the per-shard and
// per-failure-domain variants of WindowStats, carried by
// KindShardWindow / KindDomainWindow events.
type (
	ShardWindowStats  = obs.ShardWindowStats
	DomainWindowStats = obs.DomainWindowStats
)

// ObsExporter aggregates an event subscription into live export
// surfaces: a Prometheus text /metrics handler, an expvar publication,
// and a ready-made mux with net/http/pprof attached. It drains lazily
// on scrape — registered but unscraped, it costs the run nothing.
type ObsExporter = obs.Exporter

// NewObsExporter subscribes an exporter to the broker (capacity <= 0
// uses the default ring size). Returns nil if the broker is closed.
func NewObsExporter(b *ObsBroker, capacity int) *ObsExporter {
	return obs.NewExporter(b, capacity)
}

// ObsSink pumps a subscription to an io.Writer as JSONL on its own
// goroutine — the run never blocks on the writer; a slow sink shows up
// as counted drops. NewObsSink and NewObsTraceSink build one. Close
// flushes and reports the first write error.
type ObsSink = obs.Sink

// NewObsSink attaches a JSONL sink to the broker. Returns nil if the
// broker is closed.
func NewObsSink(w io.Writer, b *ObsBroker, o ObsSubOptions) *ObsSink {
	return obs.NewSink(w, b, o)
}

// WriteObsEvents and ReadObsEvents are the symmetric JSONL event
// codec — ReadObsEvents parses what ObsSink / WriteObsEvents wrote
// (one object per line, blank lines and # comments skipped).
func WriteObsEvents(w io.Writer, evs []ObsEvent) error { return obs.WriteEvents(w, evs) }

// ReadObsEvents reads a JSONL event stream back; errors carry line
// numbers and never panic (the reader is fuzzed).
func ReadObsEvents(r io.Reader) ([]ObsEvent, error) { return obs.ReadEvents(r) }

// TraceRecord is one sampled task-lifecycle event (arrival, migration
// hop with its cause, retry attempt, loss, departure), carried by
// KindTrace events and by the JSONL trace streams lbdyn writes and
// lbtrace reads.
type TraceRecord = trace.Record

// TraceSnapshot is the always-on lifecycle histogram triple (sojourn
// rounds, migration hops per task, ledger retry latency) carried by
// KindTraceHist events at every metrics-window boundary.
type TraceSnapshot = trace.Snapshot

// NewObsTraceSink attaches a sink that writes the broker's KindTrace
// stream as bare-record JSONL (capacity <= 0 uses the default ring
// size). The sink clears the broker sequence number, so the byte
// stream is identical for every worker count. Returns nil if the
// broker is closed.
func NewObsTraceSink(w io.Writer, b *ObsBroker, capacity int) *ObsSink {
	return obs.NewTraceSink(w, b, capacity)
}

// ReadTraceRecords parses a bare-record trace JSONL stream back (one
// record per line, blank lines and # comments skipped); errors carry
// line numbers and never panic (the reader is fuzzed).
func ReadTraceRecords(r io.Reader) ([]TraceRecord, error) { return trace.ReadRecords(r) }

// WriteTraceRecords writes records in the format ReadTraceRecords
// parses.
func WriteTraceRecords(w io.Writer, recs []TraceRecord) error { return trace.WriteRecords(w, recs) }

// WeightDist generates task weights (each ≥ 1) for arrival processes.
type WeightDist = task.Distribution

// UnitDist returns the constant unit-weight distribution.
func UnitDist() WeightDist { return task.Uniform{W: 1} }

// ParetoDist returns the heavy-tailed Pareto(1, alpha) weight
// distribution capped at cap (0 = uncapped).
func ParetoDist(alpha, cap float64) WeightDist { return task.Pareto{Alpha: alpha, Cap: cap} }

// ExponentialDist returns the 1+Exp weight distribution with the given
// mean ≥ 1.
func ExponentialDist(mean float64) WeightDist { return task.Exponential{Mean: mean} }

// UniformRangeDist returns weights uniform on [lo, hi], lo ≥ 1.
func UniformRangeDist(lo, hi float64) WeightDist { return task.UniformRange{Lo: lo, Hi: hi} }

// PoissonArrivals emits Poisson(rate) tasks per round with weights
// from dist.
func PoissonArrivals(rate float64, dist WeightDist) Arrivals {
	return dynamic.Poisson{Rate: rate, Weights: dist}
}

// BurstArrivals emits size tasks every `every` rounds — a periodic
// batch workload.
func BurstArrivals(every, size int, dist WeightDist) Arrivals {
	return dynamic.Burst{Every: every, Size: size, Weights: dist}
}

// TraceArrivals replays a recorded arrival sequence: rounds[t] holds
// the weights arriving in round t.
func TraceArrivals(rounds [][]float64, label string) Arrivals {
	return dynamic.Trace{Rounds: rounds, Label: label}
}

// LoadTraceArrivals reads a recorded arrival trace from a file so
// production logs replay through the open-system engine. The format
// follows the extension: .csv holds round,weight records (optional
// header, '#' comments), .jsonl/.ndjson/.json holds one
// {"round":r,"weight":w} object per line. Records may appear in any
// round order; weights must satisfy the library's wmin ≥ 1
// normalisation and errors carry line numbers.
func LoadTraceArrivals(path string) (Arrivals, error) {
	return dynamic.LoadTraceFile(path)
}

// WeightProportionalService makes every resource serve rate
// weight-units per round, bottom of stack first; a task departs once
// work equal to its weight is done. Offered utilisation is
// ρ = arrivalRate·E[w]/(n·rate).
func WeightProportionalService(rate float64) Service {
	return dynamic.WeightProportional{Rate: rate}
}

// GeometricService makes every in-flight task depart independently
// with probability p per round (mean lifetime 1/p rounds).
func GeometricService(p float64) Service { return dynamic.Geometric{P: p} }

// UniformDispatch routes each arrival to a uniformly random up
// resource.
func UniformDispatch() Dispatch { return dynamic.UniformDispatch{} }

// HotspotDispatch routes every arrival to one ingress resource — the
// dynamic analogue of the paper's single-source placement.
func HotspotDispatch(resource int) Dispatch { return dynamic.HotspotDispatch{Resource: resource} }

// PowerOfDDispatch samples d random up resources per arrival and
// routes to the least loaded (d = 2 is the classic two-choice rule).
// On heterogeneous fleets (DynamicScenario.Speeds) the samples are
// compared by load-per-speed, the quantity the speed-proportional
// thresholds equalise.
func PowerOfDDispatch(d int) Dispatch { return dynamic.PowerOfD{D: d} }

// SpeedWeightedDispatch routes each arrival to an up resource drawn
// with probability proportional to its speed — faster machines take
// proportionally more ingress. On homogeneous fleets it equals
// UniformDispatch.
func SpeedWeightedDispatch() Dispatch { return &dynamic.SpeedWeighted{} }

// LoadSpeeds reads an n-resource speed profile for heterogeneous
// fleets: .csv holds resource,speed records (optional header, '#'
// comments), .jsonl/.ndjson/.json holds one {"resource":r,"speed":s}
// object per line. Resources the file does not mention default to
// speed 1; speeds must be positive and finite, indices must lie in
// [0, n), duplicates are an error, and errors carry line numbers. The
// result plugs into DynamicScenario.Speeds.
func LoadSpeeds(path string, n int) ([]float64, error) {
	return dynamic.LoadSpeedsFile(path, n)
}

// DynamicScenario describes one open-system simulation: tasks arrive
// via Arrivals, are routed by Dispatch, receive service and depart per
// Service, resources churn per Churn, and every round the selected
// migration protocol runs against thresholds re-estimated online
// (decaying load averages spread by diffusion — or the exact average
// when OracleThresholds is set).
type DynamicScenario struct {
	// Graph is the resource topology (required).
	Graph *Graph
	// Speeds is the per-resource speed profile of a heterogeneous
	// fleet (nil = homogeneous): resource r serves work at s_r times
	// the unit rate, the online tuner targets the speed-proportional
	// thresholds (1+ε)·(W/S_up)·s_r + wmax, and load-aware dispatch
	// compares load-per-speed. Length must equal the resource count;
	// all speeds must be positive and finite. See LoadSpeeds for the
	// file formats and SpeedWeightedDispatch for speed-proportional
	// ingress.
	Speeds []float64
	// Protocol selects the migration rule (same kinds as Scenario).
	Protocol ProtocolKind
	// Alpha is the user-protocol migration constant; 0 means 1.
	Alpha float64
	// Epsilon is the threshold slack of the online estimate
	// T_r = (1+ε)·estimate_r + wmax; 0 means 0.5. Must be positive —
	// the slack absorbs both estimation error and arrival bursts.
	Epsilon float64
	// LazyWalk makes the resource-protocol walk 1/2-lazy.
	LazyWalk bool
	// Seed fixes all randomness; runs are fully deterministic.
	Seed uint64
	// Workers shards the round pipeline across a persistent worker
	// pool; ≤ 1 runs sequentially. Any worker count produces the same
	// Result bit for bit — parallelism changes only the wall clock, so
	// the seed alone still identifies a run. With more than one worker
	// the shard boundaries move every 64 rounds so observed per-shard
	// cost equalises.
	Workers int
	// Rounds is the number of simulated rounds (required).
	Rounds int
	// Window is the metrics window length; 0 means 100 rounds.
	Window int
	// Arrivals is the arrival process (required).
	Arrivals Arrivals
	// Service is the departure discipline (required).
	Service Service
	// Dispatch routes arrivals; nil means UniformDispatch.
	Dispatch Dispatch
	// Rehome picks where tasks evacuated off failed resources land;
	// nil means UniformRehome (bit-identical to the pre-policy engine).
	Rehome Dispatch
	// OracleThresholds uses the exact in-flight average W(t)/n_up
	// instead of the decentralised diffusion estimate.
	OracleThresholds bool
	// TunerDecay is the per-round EWMA decay of the load estimate
	// (0 = default 0.8); TunerEvery the rounds between diffusion
	// refreshes (0 = default 10, every round under OracleThresholds);
	// TunerSteps the diffusion steps per refresh (0 = default 8). A
	// negative or NaN value is a config error.
	TunerDecay float64
	TunerEvery int
	TunerSteps int
	// Churn enables resource join/leave; zero value disables.
	Churn ChurnSpec
	// Faults configures the unreliable-network mode (message loss with
	// retry/timeout, bounded delays, duplication, scripted partition
	// windows); nil — or an all-zero plan — injects nothing and keeps
	// the fault-free hot path byte-identical. See FaultPlan and
	// LoadFaultPlan.
	Faults *FaultPlan
	// Quarantine enables the flapping-resource hold-down; the zero
	// value disables it.
	Quarantine QuarantineSpec
	// InitialWeights/InitialPlacement optionally pre-populate the
	// system (nil placement puts all initial tasks on resource 0).
	InitialWeights   []float64
	InitialPlacement []int
	// CheckInvariants validates weight conservation every round
	// (slow; tests only).
	CheckInvariants bool
	// Obs, if non-nil, streams the run's typed telemetry events into
	// the broker (see ObsBroker). Subscribe attaches a subscription and
	// fills this field lazily.
	Obs *ObsBroker
	// Domains labels resources with failure domains (racks, zones) for
	// per-domain window events on Obs; see ObsDomains. Ignored when Obs
	// is nil.
	Domains []DomainLabels
	// TraceSample samples per-task lifecycle tracing: each arriving task
	// is traced with this probability, decided by a stateless hash of
	// (Seed, TraceSeed, task ID) — never by the shard split — so the
	// record stream is bit-identical for every worker count. Sampled
	// tasks publish KindTrace events (arrival, every migration hop with
	// its cause, retries, departure) on Obs; 0 disables record
	// publication. The sojourn/hop/retry-latency histograms in the
	// Result are always on regardless. Must lie in [0, 1]; requires Obs
	// for the records to go anywhere.
	TraceSample float64
	// TraceSeed decouples the sampling hash from the run seed, so
	// several trace passes over one scenario can sample different task
	// subsets. 0 is a fine default.
	TraceSeed uint64
	// AlertBudget arms domain-level SLO alerts: when a rack's or zone's
	// window overload fraction exceeds the budget for AlertWindows
	// consecutive windows, a KindAlert event fires on Obs (and a
	// Cleared event when the domain returns within budget). 0 disables;
	// otherwise must lie in (0,1). Requires Obs and Domains.
	AlertBudget float64
	// AlertWindows is the consecutive-breach count that fires an alert;
	// 0 selects 1 (alert on the first breached window).
	AlertWindows int
	// CheckpointEvery writes a checkpoint of the complete engine state
	// every that many rounds (0 disables), delivered to OnCheckpoint. A
	// run resumed from a checkpoint finishes byte-identical to the
	// uninterrupted one, at any worker count. See Resume.
	CheckpointEvery int
	// OnCheckpoint receives each checkpoint: the byte slice aliases an
	// internal buffer reused by the next checkpoint, so persist it (see
	// WriteSnapshotFile) or copy it before returning. A non-nil error
	// aborts the run.
	OnCheckpoint func(round int, data []byte) error
	// CrashAfterRound, when > 0, kills the run with ErrCrashed after
	// that many rounds — after the boundary's checkpoint, so the
	// crash-recovery path is testable end to end.
	CrashAfterRound int
}

// Subscribe attaches a subscription to the scenario's event stream,
// creating the broker on first use. Call before Run; drain the
// subscription from another goroutine (Wait) or after the run (Poll).
// Subscribers never perturb the run — replay stays bit-identical and
// steady-state rounds still allocate nothing.
func (sc *DynamicScenario) Subscribe(o ObsSubOptions) *ObsSubscription {
	if sc.Obs == nil {
		sc.Obs = NewObsBroker()
	}
	return sc.Obs.Subscribe(o)
}

// Run executes the open-system scenario.
func (sc DynamicScenario) Run() (DynamicResult, error) {
	cfg, err := sc.config()
	if err != nil {
		return DynamicResult{}, err
	}
	return dynamic.Run(cfg)
}

// Engine builds the scenario's resumable engine without starting it:
// call Run once, Checkpoint to snapshot manually, and Close when done.
// Most callers want plain Run (or Resume); the explicit engine exists
// for harnesses that checkpoint outside the CheckpointEvery cadence.
func (sc DynamicScenario) Engine() (*DynamicEngine, error) {
	cfg, err := sc.config()
	if err != nil {
		return nil, err
	}
	return dynamic.NewEngine(cfg)
}

// Resume reads a checkpoint written by a run of this scenario and
// returns the engine that continues it: its Run() enters the round
// loop at the checkpointed boundary and finishes byte-identical to the
// uninterrupted run, at any worker count, including under active fault
// plans. The scenario must be equivalent to the one that wrote the
// checkpoint (the snapshot rejects detectable mismatches with a
// structured error — corrupted, truncated or reordered snapshots never
// load silently).
func (sc DynamicScenario) Resume(r io.Reader) (*DynamicEngine, error) {
	cfg, err := sc.config()
	if err != nil {
		return nil, err
	}
	return dynamic.Resume(r, cfg)
}

// config validates the scenario and assembles the engine configuration
// shared by Run, Engine and Resume. Stateful components (tuner,
// re-home policy state) are built fresh on every call, as checkpoint
// restore requires.
func (sc DynamicScenario) config() (dynamic.Config, error) {
	if sc.Graph == nil {
		return dynamic.Config{}, errors.New("thresholdlb: DynamicScenario.Graph is required")
	}
	if sc.Graph.N() == 0 {
		return dynamic.Config{}, errors.New("thresholdlb: graph has no resources")
	}
	if !sc.Graph.Connected() {
		return dynamic.Config{}, errors.New("thresholdlb: graph must be connected")
	}
	if sc.Arrivals == nil {
		return dynamic.Config{}, errors.New("thresholdlb: DynamicScenario.Arrivals is required")
	}
	if sc.Service == nil {
		return dynamic.Config{}, errors.New("thresholdlb: DynamicScenario.Service is required")
	}
	if sc.Rounds <= 0 {
		return dynamic.Config{}, errors.New("thresholdlb: DynamicScenario.Rounds must be > 0")
	}
	eps := sc.Epsilon
	if eps == 0 {
		eps = 0.5
	}
	alpha := sc.Alpha
	if alpha == 0 {
		alpha = 1
	}
	if err := checkEpsilonAlpha(eps, alpha); err != nil {
		return dynamic.Config{}, err
	}
	for i, w := range sc.InitialWeights {
		if !task.ValidWeight(w) {
			return dynamic.Config{}, fmt.Errorf("thresholdlb: initial weight %v at index %d is below 1 (or not finite)", w, i)
		}
	}

	if err := sc.Protocol.checkWalkable(sc.Graph); err != nil {
		return dynamic.Config{}, err
	}
	mkKernel := func() walk.Kernel {
		var k walk.Kernel = walk.NewMaxDegree(sc.Graph)
		if sc.LazyWalk {
			k = walk.NewLazy(k)
		}
		return k
	}
	var proto core.Protocol
	switch sc.Protocol {
	case ResourceBased:
		proto = core.ResourceControlled{Kernel: mkKernel()}
	case UserBased:
		if !isComplete(sc.Graph) {
			return dynamic.Config{}, errors.New("thresholdlb: UserBased requires the complete graph (the paper's model); use UserBasedGraph for other topologies")
		}
		proto = core.UserControlled{Alpha: alpha}
	case UserBasedGraph:
		proto = core.UserControlledGraph{Alpha: alpha}
	case MixedBased:
		proto = core.Mixed{
			A:      core.ResourceControlled{Kernel: mkKernel()},
			B:      core.UserControlledGraph{Alpha: alpha},
			Period: 2,
		}
	default:
		return dynamic.Config{}, fmt.Errorf("thresholdlb: unknown protocol %v", sc.Protocol)
	}

	switch {
	case !(sc.TunerDecay >= 0):
		return dynamic.Config{}, fmt.Errorf("thresholdlb: TunerDecay %v must be >= 0 (0 selects the default 0.8)", sc.TunerDecay)
	case sc.TunerEvery < 0:
		return dynamic.Config{}, fmt.Errorf("thresholdlb: TunerEvery %d must be >= 0 (0 selects the default)", sc.TunerEvery)
	case sc.TunerSteps < 0:
		return dynamic.Config{}, fmt.Errorf("thresholdlb: TunerSteps %d must be >= 0 (0 selects the default 8)", sc.TunerSteps)
	}
	var tuner dynamic.Tuner
	if sc.OracleThresholds {
		tuner = &dynamic.OracleTuner{Eps: eps, Every: sc.TunerEvery}
	} else {
		if sc.Graph.MaxDegree() == 0 {
			return dynamic.Config{}, errors.New("thresholdlb: self-tuned thresholds need a graph with at least one edge to diffuse over; set OracleThresholds for a single resource")
		}
		st := dynamic.NewSelfTuner(walk.NewLazy(walk.NewMaxDegree(sc.Graph)), eps)
		if sc.TunerDecay > 0 {
			st.Decay = sc.TunerDecay
		}
		if sc.TunerEvery > 0 {
			st.Every = sc.TunerEvery
		}
		if sc.TunerSteps > 0 {
			st.Steps = sc.TunerSteps
		}
		tuner = st
	}

	rehome := sc.Rehome
	if loc, ok := rehome.(*recovery.Locality); ok && loc != nil {
		// Checkpoint restore (and back-to-back runs) need fresh policy
		// state; the Locality value itself carries run state, so clone
		// the configuration without the membership lists.
		rehome = &recovery.Locality{Topo: loc.Topo}
	}

	return dynamic.Config{
		Graph:            sc.Graph,
		Speeds:           sc.Speeds,
		Protocol:         proto,
		Arrivals:         sc.Arrivals,
		Service:          sc.Service,
		Dispatch:         sc.Dispatch,
		Rehome:           rehome,
		Tuner:            tuner,
		Churn:            sc.Churn,
		Faults:           sc.Faults,
		Quarantine:       sc.Quarantine,
		Rounds:           sc.Rounds,
		Window:           sc.Window,
		Seed:             sc.Seed,
		Workers:          sc.Workers,
		InitialWeights:   sc.InitialWeights,
		InitialPlacement: sc.InitialPlacement,
		CheckInvariants:  sc.CheckInvariants,
		Obs:              sc.Obs,
		Domains:          sc.Domains,
		TraceSample:      sc.TraceSample,
		TraceSeed:        sc.TraceSeed,
		AlertBudget:      sc.AlertBudget,
		AlertWindows:     sc.AlertWindows,
		CheckpointEvery:  sc.CheckpointEvery,
		OnCheckpoint:     sc.OnCheckpoint,
		CrashAfterRound:  sc.CrashAfterRound,
	}, nil
}

// DynamicEngine is the resumable form of DynamicScenario.Run — built
// by DynamicScenario.Engine or DynamicScenario.Resume.
type DynamicEngine = dynamic.Engine

// ErrCrashed is returned by a run cut short by CrashAfterRound (the
// crash-injection harness's simulated kill).
var ErrCrashed = dynamic.ErrCrashed

// WriteSnapshotFile persists one checkpoint atomically: the bytes land
// under a temporary name, are fsynced, and are renamed into place, so
// a crash mid-write never leaves a truncated snapshot at path.
func WriteSnapshotFile(path string, data []byte) error {
	return snapshot.WriteFileAtomic(path, data)
}
