// Package serve is the live serving runtime: it wraps the
// deterministic open-system engine (internal/dynamic) in a wall-clock
// loop so arrivals can be pushed in from a network front door while
// rounds tick on a timer or adaptively on backlog, and resources can
// be drained/added and the dispatch policy swapped without stopping
// the world.
//
// The runtime's contract is the lockstep twin: every admitted arrival
// batch, reconfiguration op and dispatch swap is recorded into a
// deterministic round log (one JSONL record per stepped round), and
// replaying that log through a fresh engine with the same scenario
// configuration reproduces the live run's Result bit-for-bit. The
// engine keeps all randomness in its own seeded streams — wall-clock
// timing only decides WHERE the batch boundaries fall, and the log
// captures exactly that — so the twin property holds through churn,
// faults, partitions and online reconfiguration. The twin-equivalence
// test suite pins it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/task"
)

// Ingest/step errors, mapped onto HTTP statuses by the front door.
var (
	// ErrBackpressure rejects an ingest that would overflow MaxPending.
	ErrBackpressure = errors.New("serve: ingest backlog full")
	// ErrDraining rejects ingest after shutdown has begun.
	ErrDraining = errors.New("serve: runtime is draining")
	// ErrHorizon rejects work past the engine's configured round horizon.
	ErrHorizon = errors.New("serve: round horizon exhausted")
)

// Options tune the runtime's pacing and persistence.
type Options struct {
	// Interval > 0 ticks a round every Interval, arrivals or not (the
	// wall-clock mode). Interval == 0 selects adaptive pacing: a round
	// steps as soon as the backlog reaches BatchTarget, or after
	// MaxInterval without one.
	Interval time.Duration
	// BatchTarget is the adaptive-mode backlog that triggers a round.
	// Defaults to 256.
	BatchTarget int
	// MaxInterval bounds the adaptive-mode wait so service, churn and
	// balancing keep running through quiet spells. Defaults to 50ms.
	MaxInterval time.Duration
	// MaxPending bounds the ingest backlog; past it Ingest returns
	// ErrBackpressure. Defaults to 1<<20 tasks.
	MaxPending int
	// LogWriter receives the round log, one JSONL record per stepped
	// round, written ahead of the step in one Write. The runtime never
	// syncs it: a record is on disk only once the writer's owner syncs
	// it. Nil keeps no log.
	LogWriter io.Writer
	// OnShutdown, when non-nil, receives the engine's checkpoint bytes
	// after the shutdown drain — the SIGTERM persistence hook. The
	// callback owns making the write atomic.
	OnShutdown func(snapshot []byte) error
}

func (o *Options) withDefaults() {
	if o.BatchTarget <= 0 {
		o.BatchTarget = 256
	}
	if o.MaxInterval <= 0 {
		o.MaxInterval = 50 * time.Millisecond
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 1 << 20
	}
}

// Stats is a point-in-time view for the status endpoint.
type Stats struct {
	NextRound      int     `json:"next_round"`
	Horizon        int     `json:"horizon"`
	InFlight       int     `json:"in_flight"`
	InFlightWeight float64 `json:"in_flight_weight"`
	UpResources    int     `json:"up_resources"`
	Pending        int     `json:"pending"`
	Accepted       int64   `json:"accepted"`
	Rejected       int64   `json:"rejected"`
	Dispatch       string  `json:"dispatch"`
	Draining       bool    `json:"draining"`
	// Lifecycle percentiles from the engine's always-on histograms
	// (bucket-resolution estimates; 0 until the first departure).
	SojournP50 float64 `json:"sojourn_p50"`
	SojournP95 float64 `json:"sojourn_p95"`
	SojournP99 float64 `json:"sojourn_p99"`
	HopsP99    float64 `json:"hops_p99"`
}

// Runtime drives one engine with live inputs. Ingest and Reconfigure
// are safe from any goroutine; StepRound (and therefore Run) must have
// a single caller, and Finish/Checkpoint only run once stepping has
// stopped. The runtime keeps nothing per round: the round log goes to
// LogWriter, and the backlog alternates between two buffers, so its
// memory is bounded by two of them, each at most MaxPending weights.
type Runtime struct {
	eng    *dynamic.Engine
	opts   Options
	logBuf []byte // StepRound's log line, reused every round

	mu       sync.Mutex
	pending  []float64 // admitted weights awaiting their round
	spare    []float64 // the batch last stepped: the next round's backlog buffer
	pendDown []int     // staged drains
	pendUp   []int     // staged adds
	pendDisp string    // staged dispatch swap ("" = none)
	draining bool
	accepted int64
	rejected int64
	dispatch string            // policy in force (for status/resume bookkeeping)
	stats    dynamic.LiveStats // cached after each step

	kick chan struct{} // adaptive-mode backlog signal, capacity 1
}

// New wraps eng (fresh or resumed) in a runtime. dispatch names the
// policy currently in force — the scenario's configured one, or on
// resume the last swap recovered from the round log.
func New(eng *dynamic.Engine, dispatch string, opts Options) *Runtime {
	opts.withDefaults()
	return &Runtime{
		eng:      eng,
		opts:     opts,
		dispatch: dispatch,
		stats:    eng.Stats(),
		kick:     make(chan struct{}, 1),
	}
}

// SetLogWriter attaches (or replaces) the round-log sink. Call before
// stepping starts.
func (rt *Runtime) SetLogWriter(w io.Writer) { rt.opts.LogWriter = w }

// Ingest admits a batch of task weights into the next round. It
// returns how many were admitted: all of them, or none (invalid
// weight, backlog full, draining, horizon exhausted).
func (rt *Runtime) Ingest(weights []float64) (int, error) {
	for i, w := range weights {
		if !task.ValidWeight(w) {
			return 0, fmt.Errorf("serve: arrival %d weight %v violates wmin >= 1", i, w)
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.draining {
		rt.rejected += int64(len(weights))
		return 0, ErrDraining
	}
	if rt.stats.NextRound >= rt.eng.Rounds() {
		rt.rejected += int64(len(weights))
		return 0, ErrHorizon
	}
	if len(rt.pending)+len(weights) > rt.opts.MaxPending {
		rt.rejected += int64(len(weights))
		return 0, ErrBackpressure
	}
	rt.pending = append(rt.pending, weights...)
	rt.accepted += int64(len(weights))
	if len(rt.pending) >= rt.opts.BatchTarget {
		select {
		case rt.kick <- struct{}{}:
		default:
		}
	}
	return len(weights), nil
}

// Reconfigure stages reconfiguration for the next round: drain the
// resources in down, add the ones in up, and (when dispatch != "")
// swap the dispatch policy. Ops accumulate until the round steps.
func (rt *Runtime) Reconfigure(down, up []int, dispatch string) error {
	if dispatch != "" {
		if _, err := ParseDispatch(dispatch); err != nil {
			return err
		}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.draining {
		return ErrDraining
	}
	rt.pendDown = append(rt.pendDown, down...)
	rt.pendUp = append(rt.pendUp, up...)
	if dispatch != "" {
		rt.pendDisp = dispatch
	}
	return nil
}

// StepRound admits the staged batch and ops as one engine round,
// write-ahead-logging the record first. Single caller only (Run, or a
// test driving rounds manually). Ingest fills the other backlog buffer
// meanwhile, and the batch stepped becomes the buffer the round after
// this one fills: the engine copies a step's weights, so nothing holds
// them once the round has stepped.
func (rt *Runtime) StepRound() error {
	rt.mu.Lock()
	rec := RoundRecord{
		Round:    rt.stats.NextRound,
		Weights:  rt.pending,
		Down:     rt.pendDown,
		Up:       rt.pendUp,
		Dispatch: rt.pendDisp,
	}
	rt.pending, rt.spare = rt.spare[:0], nil
	rt.pendDown, rt.pendUp, rt.pendDisp = nil, nil, ""
	rt.mu.Unlock()

	if rec.Dispatch != "" {
		d, err := ParseDispatch(rec.Dispatch)
		if err != nil {
			return err
		}
		if err := rt.eng.SetDispatch(d); err != nil {
			return err
		}
	}
	// The record is written ahead of the round, in one Write to
	// LogWriter. Nothing on this path syncs it: it reaches disk only
	// when the writer's owner syncs it, so a crash can still lose the
	// last records written (ROADMAP item 7).
	if rt.opts.LogWriter != nil {
		var err error
		if rt.logBuf, err = writeRecord(rt.opts.LogWriter, rt.logBuf, &rec); err != nil {
			return fmt.Errorf("serve: round log: %w", err)
		}
	}
	_, err := rt.eng.Step(dynamic.StepInput{
		Weights: rec.Weights, Down: rec.Down, Up: rec.Up,
	})
	st := rt.eng.Stats()

	rt.mu.Lock()
	rt.spare = rec.Weights
	rt.stats = st
	if rec.Dispatch != "" {
		rt.dispatch = rec.Dispatch
	}
	rt.mu.Unlock()
	return err
}

// pendingLen reports the staged backlog (weights plus ops).
func (rt *Runtime) pendingLen() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.pending) + len(rt.pendDown) + len(rt.pendUp) + len(rt.pendDisp)
}

// Run ticks rounds until the context is cancelled or the horizon is
// exhausted, then drains: ingest shuts, the staged backlog steps
// through, and the engine's checkpoint goes to OnShutdown. Single
// caller; Ingest/Reconfigure stay live concurrently.
func (rt *Runtime) Run(ctx context.Context) error {
	timer := time.NewTimer(rt.tickWait())
	defer timer.Stop()
loop:
	for rt.eng.NextRound() < rt.eng.Rounds() {
		if rt.opts.Interval > 0 {
			select {
			case <-ctx.Done():
				break loop
			case <-timer.C:
			}
		} else {
			select {
			case <-ctx.Done():
				break loop
			case <-rt.kick:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
			}
		}
		if err := rt.StepRound(); err != nil {
			return err
		}
		timer.Reset(rt.tickWait())
	}
	return rt.shutdown()
}

func (rt *Runtime) tickWait() time.Duration {
	if rt.opts.Interval > 0 {
		return rt.opts.Interval
	}
	return rt.opts.MaxInterval
}

// shutdown closes ingest, steps the leftover backlog and persists the
// checkpoint.
func (rt *Runtime) shutdown() error {
	rt.mu.Lock()
	rt.draining = true
	rt.mu.Unlock()
	for rt.pendingLen() > 0 && rt.eng.NextRound() < rt.eng.Rounds() {
		if err := rt.StepRound(); err != nil {
			return err
		}
	}
	if rt.opts.OnShutdown != nil {
		var buf checkpointBuf
		if err := rt.eng.Checkpoint(&buf); err != nil {
			return err
		}
		if err := rt.opts.OnShutdown(buf.data); err != nil {
			return fmt.Errorf("serve: shutdown checkpoint: %w", err)
		}
	}
	return nil
}

type checkpointBuf struct{ data []byte }

func (b *checkpointBuf) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

// Finish closes the run and returns the engine's Result. Call once,
// after stepping has stopped.
func (rt *Runtime) Finish() (dynamic.Result, error) { return rt.eng.Finish() }

// Close releases the engine's worker pool. Idempotent.
func (rt *Runtime) Close() { rt.eng.Close() }

// Checkpoint writes the engine's current snapshot to w. Not safe while
// stepping.
func (rt *Runtime) Checkpoint(w io.Writer) error { return rt.eng.Checkpoint(w) }

// Stats snapshots the runtime for the status endpoint.
func (rt *Runtime) Stats() Stats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return Stats{
		NextRound:      rt.stats.NextRound,
		Horizon:        rt.eng.Rounds(),
		InFlight:       rt.stats.InFlight,
		InFlightWeight: rt.stats.InFlightWeight,
		UpResources:    rt.stats.UpResources,
		Pending:        len(rt.pending),
		Accepted:       rt.accepted,
		Rejected:       rt.rejected,
		Dispatch:       rt.dispatch,
		Draining:       rt.draining,
		SojournP50:     rt.stats.SojournP50,
		SojournP95:     rt.stats.SojournP95,
		SojournP99:     rt.stats.SojournP99,
		HopsP99:        rt.stats.HopsP99,
	}
}
