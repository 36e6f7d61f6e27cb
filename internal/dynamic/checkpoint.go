package dynamic

import (
	"errors"
	"fmt"
	"io"
	"io/fs"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/snapshot"
	"repro/internal/trace"
)

// Checkpoint/restore for the open-system engine. A checkpoint captures
// the COMPLETE mutable state a resumed run needs to finish
// byte-identical to the uninterrupted one: every RNG stream position,
// the task set (free list included — ID assignment is a pure function
// of its LIFO order), every stack with its incrementally-accumulated
// load bits, the threshold vector, the up/down and reachable sets in
// their exact internal order (uniform draws index into them), the
// quarantine ledger, the fault injector's in-flight ledger and delay
// wheel, stateful tuner and re-home policy internals, the recovery
// episode tracker, the window accumulators and the full Result so far.
//
// Deliberately NOT captured: shard boundaries, measured phase nanos and
// exchange lane counters — all wall-clock-driven work-split state that
// never affects results (the determinism contract makes every phase
// partition-invariant). A resumed run re-cuts its own boundaries, so
// per-shard telemetry (KindShardWindow, KindLanes, KindShardCost,
// KindPhase) may attribute work differently than the uninterrupted
// run even though Result and all partition-invariant event kinds are
// bit-identical.
//
// Identity contract: Resume must be given an equivalent Config (same
// graph, seed, rounds, window, protocol, processes and plans) with
// FRESH stateful components (tuner, re-home policy, dispatcher) — the
// snapshot restores their state, it cannot un-run a used one. The
// snapshot stores enough fingerprint (n, seed, rounds, window,
// component presence flags) to reject the obvious mismatches with a
// structured error instead of diverging silently.

// ErrCrashed is returned by a run cut short by Config.CrashAfterRound
// — the crash-injection harness's signal that the simulated kill, not
// a real failure, ended the run.
var ErrCrashed = errors.New("dynamic: run crashed by Config.CrashAfterRound")

// SnapshotStater is implemented by stateful pluggable components
// (tuners, re-home policies) whose internal state must ride the
// engine checkpoint. Snapshot walks the component's persistent state
// as one section body through c: writing, it records the state;
// reading, it restores it into a freshly constructed component of the
// same configuration and reports any mismatch as an error.
type SnapshotStater interface {
	Snapshot(c *snapshot.Codec) error
}

// Engine is the resumable form of Run: construct with NewEngine (or
// Resume), call Run once, and Close when done. Checkpoint may be
// called before Run starts or after it returns — never concurrently
// with it (the run loop's own cadence checkpoints live via
// Config.CheckpointEvery/OnCheckpoint).
type Engine struct {
	e      *engine
	closed bool
}

// NewEngine validates cfg and builds an engine without starting it.
func NewEngine(cfg Config) (*Engine, error) {
	if err := validate(cfg); err != nil {
		return nil, err
	}
	return &Engine{e: newEngine(cfg)}, nil
}

// Run executes the run (from the snapshot's round when the engine was
// built by Resume). Call at most once.
func (en *Engine) Run() (Result, error) {
	return en.e.run()
}

// Checkpoint encodes the engine's current state and writes it to w.
func (en *Engine) Checkpoint(w io.Writer) error {
	data, err := en.e.checkpointBytes()
	if err != nil {
		return fmt.Errorf("dynamic: encoding checkpoint: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("dynamic: writing checkpoint: %w", err)
	}
	return nil
}

// Close releases the engine's worker pool. Idempotent.
func (en *Engine) Close() {
	if !en.closed {
		en.closed = true
		en.e.close()
	}
}

// Resume reads a snapshot and builds an engine that continues the
// checkpointed run: its Run() enters the round loop at the snapshot's
// boundary and finishes byte-identical to the uninterrupted run. cfg
// must be equivalent to the original run's Config (fresh stateful
// components included); mismatches the snapshot can detect fail here
// with a structured error.
func Resume(r io.Reader, cfg Config) (*Engine, error) {
	data, err := readSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("dynamic: reading snapshot: %w", err)
	}
	if err := validate(cfg); err != nil {
		return nil, err
	}
	e := newEngine(cfg)
	c, err := snapshot.NewReader(data)
	if err == nil {
		err = e.snapshot(c)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	// Every read copies its value out of data, so once the walk is done
	// nothing aliases it: the engine's checkpoints encode into it
	// instead of growing a buffer from empty.
	e.ckpt = snapshot.NewWriter(data)
	// The crash drill fires when round CrashAfterRound completes; a
	// snapshot already at or past it would otherwise resume into a run
	// where the scripted crash silently never happens.
	if cfg.CrashAfterRound > 0 && e.startRound >= cfg.CrashAfterRound {
		e.close()
		return nil, fmt.Errorf("dynamic: snapshot resumes at round %d, at or past Config.CrashAfterRound %d — the scripted crash can never fire; drop CrashAfterRound to resume", e.startRound, cfg.CrashAfterRound)
	}
	return &Engine{e: e}, nil
}

// readSnapshot reads r to EOF in one buffer sized, as os.ReadFile
// sizes its own, from the length r reports: Len for an in-memory
// reader such as *bytes.Reader, Stat for an *os.File. The extra byte
// lets the read that reports EOF land without growing the buffer. The
// size is a hint only: a reader that reports neither, or too little,
// grows the buffer as it goes.
func readSnapshot(r io.Reader) ([]byte, error) {
	size := 0
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && int64(int(fi.Size())) == fi.Size() {
			size = int(fi.Size())
		}
	}
	size++
	if size < 512 {
		size = 512
	}
	data := make([]byte, 0, size)
	for {
		n, err := r.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// checkpoint runs one cadence checkpoint: encode, announce on the
// broker, hand the bytes to the sink.
func (e *engine) checkpoint(round int) error {
	data, err := e.checkpointBytes()
	if err != nil {
		return fmt.Errorf("dynamic: checkpoint at round %d: %w", round, err)
	}
	if e.cfg.OnCheckpoint != nil {
		if err := e.cfg.OnCheckpoint(round, data); err != nil {
			return fmt.Errorf("dynamic: checkpoint at round %d: %w", round, err)
		}
	}
	return nil
}

// checkpointBytes encodes the snapshot capturing the boundary entering
// nextRound and publishes its KindCheckpoint marker. The returned slice
// aliases the buffer of the engine's writing codec; encoding allocates
// nothing once that buffer reaches its high-water mark. Only a
// SnapshotStater reporting an error can make it fail.
func (e *engine) checkpointBytes() ([]byte, error) {
	if e.ckpt == nil {
		e.ckpt = snapshot.NewWriter(nil)
	}
	e.ckpt.Reset()
	if err := e.snapshot(e.ckpt); err != nil {
		return nil, err
	}
	data := e.ckpt.Bytes()
	if e.broker != nil {
		round := e.nextRound
		e.ev = obs.Event{Kind: obs.KindCheckpoint, Round: round,
			Checkpoint: obs.CheckpointEvent{Round: round, Bytes: len(data)}}
		e.broker.Publish(&e.ev)
	}
	return data, nil
}

// snapshot walks the engine's complete checkpoint state through c,
// section by section in file order. Writing, it records the boundary
// entering nextRound. Reading, it restores that state into an engine
// freshly built from an equivalent Config and returns the first
// inconsistency — corruption, truncation, reordering, or a config that
// does not match the snapshot — as a structured error; nothing loads
// silently.
func (e *engine) snapshot(c *snapshot.Codec) error {
	tunerState, _ := e.cfg.Tuner.(SnapshotStater)
	rehomeState, _ := e.rehome.(SnapshotStater)

	// The fingerprint: enough of the config to reject the obvious
	// mismatches, and one presence flag per optional section.
	c.Begin("meta")
	n, seed, rounds, window := e.n, e.cfg.Seed, e.cfg.Rounds, e.window
	c.Int(&n)
	c.Uint64(&seed)
	c.Int(&rounds)
	c.Int(&window)
	c.Int(&e.nextRound)
	var seq uint64
	if e.broker != nil {
		// The KindCheckpoint marker for this boundary publishes right
		// after encoding, so the saved sequence counts it: the resumed
		// stream continues numbering immediately after the marker.
		seq = e.broker.Published() + 1
	}
	c.Uint64(&seq)
	shards := len(e.shards) // the writing run's shard count, informational only
	c.Int(&shards)
	hasInj, hasReach, hasQuar := e.inj != nil, e.reach != e.up, e.quarCfg.enabled()
	hasTuner, hasRehome, hasAlerts := tunerState != nil, rehomeState != nil, e.alertCnt != nil
	c.Bool(&hasInj)
	c.Bool(&hasReach)
	c.Bool(&hasQuar)
	c.Bool(&hasTuner)
	c.Bool(&hasRehome)
	c.Bool(&hasAlerts)
	c.End()
	if c.Reading() {
		switch {
		case n != e.n:
			c.Fail(fmt.Errorf("dynamic: snapshot covers %d resources, config has %d", n, e.n))
		case seed != e.cfg.Seed:
			c.Fail(fmt.Errorf("dynamic: snapshot seed %d does not match config seed %d", seed, e.cfg.Seed))
		case rounds != e.cfg.Rounds:
			c.Fail(fmt.Errorf("dynamic: snapshot run horizon %d rounds does not match config %d", rounds, e.cfg.Rounds))
		case window != e.window:
			c.Fail(fmt.Errorf("dynamic: snapshot window %d does not match config %d", window, e.window))
		case e.nextRound < 0 || e.nextRound > rounds:
			c.Fail(fmt.Errorf("dynamic: snapshot resume round %d outside [0, %d]", e.nextRound, rounds))
		case hasInj != (e.inj != nil):
			c.Fail(fmt.Errorf("dynamic: snapshot fault-injector state (%v) does not match config (%v)", hasInj, e.inj != nil))
		case hasReach != (e.reach != e.up):
			c.Fail(fmt.Errorf("dynamic: snapshot partition reachability state (%v) does not match config (%v)", hasReach, e.reach != e.up))
		case hasQuar != e.quarCfg.enabled():
			c.Fail(fmt.Errorf("dynamic: snapshot quarantine state (%v) does not match config (%v)", hasQuar, e.quarCfg.enabled()))
		case hasTuner != (tunerState != nil):
			c.Fail(fmt.Errorf("dynamic: snapshot tuner state (%v) does not match config tuner %q", hasTuner, e.cfg.Tuner.Name()))
		case hasRehome != (rehomeState != nil):
			c.Fail(fmt.Errorf("dynamic: snapshot re-home state (%v) does not match config policy %q", hasRehome, e.rehome.Name()))
		case hasAlerts != (e.alertCnt != nil):
			c.Fail(fmt.Errorf("dynamic: snapshot alert-tracker state (%v) does not match config (%v)", hasAlerts, e.alertCnt != nil))
		}
	}

	c.Begin("rng")
	snapshotRand(c, e.arrRand)
	snapshotRand(c, e.dispRand)
	snapshotRand(c, e.churnRand)
	for r := 0; r < e.n; r++ {
		snapshotRand(c, e.s.Rand(r))
	}
	c.End()

	c.Begin("tasks")
	e.ts.Snapshot(c)
	c.End()

	c.Begin("state")
	e.s.Snapshot(c)
	c.End()

	c.Begin("ups")
	e.up.snapshot(c, e.n, "up")
	if e.reach != e.up {
		e.reach.snapshot(c, e.n, "reachable")
	}
	c.End()

	if e.quarCfg.enabled() {
		c.Begin("quar")
		c.Int32s(&e.flapCnt)
		c.Int32s(&e.quarUntil)
		c.Bools(&e.quarWantUp)
		c.Ints(&e.quarActive)
		c.End()
		if c.Reading() && (len(e.flapCnt) != e.n || len(e.quarUntil) != e.n || len(e.quarWantUp) != e.n) {
			c.Fail(fmt.Errorf("dynamic: snapshot quarantine vectors do not cover the %d-resource fleet", e.n))
		}
	}

	if e.inj != nil {
		c.Begin("inj")
		e.inj.Snapshot(c)
		c.End()
	}

	if tunerState != nil {
		c.Begin("tuner")
		c.Fail(tunerState.Snapshot(c))
		c.End()
	}

	if rehomeState != nil {
		c.Begin("rehome")
		c.Fail(rehomeState.Snapshot(c))
		c.End()
	}

	if e.alertCnt != nil {
		c.Begin("alerts")
		levels := len(e.alertCnt)
		c.Len(&levels, 8)
		if levels != len(e.alertCnt) {
			c.Fail(fmt.Errorf("dynamic: snapshot alert tracker has %d levels, config has %d", levels, len(e.alertCnt)))
		}
		for li := range e.alertCnt {
			c.Int32s(&e.alertCnt[li])
			c.Bools(&e.alertActive[li])
			if c.Reading() && (len(e.alertCnt[li]) != len(e.domains[li].Names) ||
				len(e.alertActive[li]) != len(e.domains[li].Names)) {
				c.Fail(fmt.Errorf("dynamic: snapshot alert level %d covers %d domains, config has %d",
					li, len(e.alertCnt[li]), len(e.domains[li].Names)))
			}
		}
		c.End()
	}

	c.Begin("engine")
	c.Float64s(&e.remaining)
	c.Float64(&e.initialWeight)
	c.Float64(&e.prevOverload)
	c.Bool(&e.recOpen)
	e.recCur.snapshot(c)
	c.Int(&e.windowStart)
	c.Float64(&e.wOverload)
	c.Int64(&e.wMigrations)
	c.Int64(&e.wRehomed)
	c.Int64(&e.wArrivals)
	c.Int64(&e.wDepartures)
	// The per-shard window accumulators (wShardArr/Dep/Inb) are
	// deliberately NOT captured: their attribution follows the
	// wall-clock-rebalanced shard bounds, which are nondeterministic
	// and not part of a snapshot. Dropping them keeps checkpoint bytes
	// bit-deterministic; the cost is one under-counted KindShardWindow
	// report right after resume — per-shard telemetry is already
	// partition-dependent and outside the determinism contract.
	c.End()

	c.Begin("trace")
	c.Int32s(&e.arrT)
	c.Int32s(&e.hopCnt)
	c.End()
	if c.Reading() && len(e.arrT) != len(e.hopCnt) {
		c.Fail(fmt.Errorf("dynamic: snapshot trace state has %d arrival rounds for %d hop counters",
			len(e.arrT), len(e.hopCnt)))
	}

	c.Begin("result")
	e.res.snapshot(c)
	c.End()

	if err := c.Close(); err != nil || !c.Reading() {
		return err
	}
	e.startRound = e.nextRound
	if e.broker != nil && seq > 0 {
		e.broker.ResumeSeq(seq)
	}
	return nil
}

// snapshotRand walks one generator's position: a kind tag and four
// state words.
func snapshotRand(c *snapshot.Codec, r *rng.Rand) {
	kind, words := r.State()
	c.Uint8(&kind)
	for i := range words {
		c.Uint64(&words[i])
	}
	if c.Reading() && c.Err() == nil {
		c.Fail(r.SetState(kind, words))
	}
}

// snapshot walks one recovery episode, the open one or a closed one.
func (rs *RecoveryStat) snapshot(c *snapshot.Codec) {
	c.Int(&rs.Round)
	c.Int(&rs.Downs)
	c.Int64(&rs.EvacTasks)
	c.Float64(&rs.EvacWeight)
	c.Float64(&rs.BaselineOverload)
	c.Float64(&rs.PeakOverload)
	c.Int(&rs.DrainRounds)
}

// snapshot walks the full Result accumulated so far: incrementally
// summed floats as exact bit patterns, the recovery and window
// histories and the lifecycle histograms verbatim.
func (res *Result) snapshot(c *snapshot.Codec) {
	c.Int(&res.Rounds)
	c.Int64(&res.Arrived)
	c.Int64(&res.Departed)
	c.Float64(&res.ArrivedWeight)
	c.Float64(&res.DepartedWeight)
	c.Int64(&res.Migrations)
	c.Float64(&res.MovedWeight)
	c.Int64(&res.Rehomed)
	c.Float64(&res.RehomedWeight)
	c.Int(&res.Downs)
	c.Int(&res.Ups)
	snapshot.Slice(c, &res.Recoveries, 56, func(rs *RecoveryStat) { rs.snapshot(c) })
	snapshot.Slice(c, &res.Windows, 112, func(w *WindowStats) {
		c.Int(&w.Start)
		c.Int(&w.End)
		c.Float64(&w.OverloadFrac)
		c.Float64(&w.MigrationRate)
		c.Float64(&w.RehomeRate)
		c.Float64(&w.ArrivalRate)
		c.Float64(&w.DepartureRate)
		c.Float64(&w.MeanLoad)
		c.Float64(&w.MaxLoad)
		c.Float64(&w.P99Load)
		c.Float64(&w.P99LoadPerSpeed)
		c.Int(&w.InFlight)
		c.Float64(&w.InFlightWeight)
		c.Int(&w.UpResources)
	})
	c.Int(&res.FinalInFlight)
	c.Float64(&res.FinalWeight)
	c.Int64(&res.Lost)
	c.Int64(&res.Delayed)
	c.Int64(&res.Duplicated)
	c.Int64(&res.Deduped)
	c.Int64(&res.Retries)
	c.Int64(&res.Timeouts)
	c.Int64(&res.PartitionBlocked)
	c.Int64(&res.Bounced)
	c.Float64(&res.BouncedWeight)
	c.Int(&res.Quarantined)
	c.Int(&res.FinalLedger)
	c.Float64(&res.FinalLedgerWeight)
	for _, h := range [...]*trace.Hist{&res.Sojourn, &res.Hops, &res.RetryLat} {
		for i := range h.Counts {
			c.Int64(&h.Counts[i])
		}
		c.Int64(&h.Sum)
	}
}
