package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/lineio"
	"repro/internal/trace"
)

// The JSONL event sink: one event object per line, for offline
// analysis of a run's telemetry stream. The wire format names the kind
// and carries exactly one payload object under the kind's field:
//
//	{"kind":"window","seq":12,"round":100,"window":{"start":0,...}}
//	{"kind":"phase","seq":13,"round":64,"phase":{"shard":0,"service":812345,...}}
//
// WriteEvents/ReadEvents are the symmetric codec; Sink pumps a
// subscription to an io.Writer on its own goroutine (the engine never
// blocks on the file — a slow disk shows up as counted drops, not
// backpressure), as these lines or, for the KindTrace stream alone, as
// bare trace.Record lines.

// wireEvent is the JSONL line shape. Payload fields are pointers so
// exactly the kind's payload is present on the wire, and so the reader
// can tell a missing payload from a zero one.
type wireEvent struct {
	Kind  string `json:"kind"`
	Seq   uint64 `json:"seq"`
	Round int    `json:"round"`

	Window       *WindowStats       `json:"window,omitempty"`
	ShardWindow  *ShardWindowStats  `json:"shard_window,omitempty"`
	DomainWindow *DomainWindowStats `json:"domain_window,omitempty"`
	Lane         *LaneStats         `json:"lane,omitempty"`
	ShardCost    *ShardCost         `json:"shard_cost,omitempty"`
	Phase        *wirePhase         `json:"phase,omitempty"`
	Recovery     *RecoveryEvent     `json:"recovery,omitempty"`
	Faults       *FaultStats        `json:"faults,omitempty"`
	Quarantine   *QuarantineEvent   `json:"quarantine,omitempty"`
	Alert        *AlertEvent        `json:"alert,omitempty"`
	Checkpoint   *CheckpointEvent   `json:"checkpoint,omitempty"`
	Trace        *trace.Record      `json:"trace,omitempty"`
	TraceHist    *trace.Snapshot    `json:"trace_hist,omitempty"`
}

// wirePhase flattens a PhaseStats nanos array into named per-phase
// fields, so offline tooling never depends on PhaseID ordering.
type wirePhase struct {
	Shard    int   `json:"shard"`
	Arrivals int64 `json:"arrivals"`
	Service  int64 `json:"service"`
	Tune     int64 `json:"tune"`
	Propose  int64 `json:"propose"`
	Deliver  int64 `json:"deliver"`
	Evacuate int64 `json:"evacuate"`
}

func toWirePhase(p PhaseStats) *wirePhase {
	return &wirePhase{
		Shard:    p.Shard,
		Arrivals: p.Nanos[PhaseArrivals],
		Service:  p.Nanos[PhaseService],
		Tune:     p.Nanos[PhaseTune],
		Propose:  p.Nanos[PhasePropose],
		Deliver:  p.Nanos[PhaseDeliver],
		Evacuate: p.Nanos[PhaseEvac],
	}
}

func fromWirePhase(p *wirePhase) PhaseStats {
	ps := PhaseStats{Shard: p.Shard}
	ps.Nanos[PhaseArrivals] = p.Arrivals
	ps.Nanos[PhaseService] = p.Service
	ps.Nanos[PhaseTune] = p.Tune
	ps.Nanos[PhasePropose] = p.Propose
	ps.Nanos[PhaseDeliver] = p.Deliver
	ps.Nanos[PhaseEvac] = p.Evacuate
	return ps
}

// toWire converts one event to its line shape.
func toWire(ev *Event) (wireEvent, error) {
	w := wireEvent{Kind: ev.Kind.String(), Seq: ev.Seq, Round: ev.Round}
	switch ev.Kind {
	case KindWindow:
		p := ev.Window
		w.Window = &p
	case KindShardWindow:
		p := ev.ShardWindow
		w.ShardWindow = &p
	case KindDomainWindow:
		p := ev.DomainWindow
		w.DomainWindow = &p
	case KindLanes:
		p := ev.Lane
		w.Lane = &p
	case KindShardCost:
		p := ev.ShardCost
		w.ShardCost = &p
	case KindPhase:
		w.Phase = toWirePhase(ev.Phase)
	case KindRecoveryStart, KindRecoveryEnd:
		p := ev.Recovery
		w.Recovery = &p
	case KindFaults:
		p := ev.Faults
		w.Faults = &p
	case KindQuarantine:
		p := ev.Quarantine
		w.Quarantine = &p
	case KindAlert:
		p := ev.Alert
		w.Alert = &p
	case KindCheckpoint:
		p := ev.Checkpoint
		w.Checkpoint = &p
	case KindTrace:
		p := ev.Trace
		w.Trace = &p
	case KindTraceHist:
		p := ev.TraceHist
		w.TraceHist = &p
	default:
		return w, fmt.Errorf("obs: cannot encode event of unknown kind %d", ev.Kind)
	}
	return w, nil
}

// WriteEvents encodes events as JSONL, one object per line.
func WriteEvents(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range evs {
		we, err := toWire(&evs[i])
		if err != nil {
			return err
		}
		if err := enc.Encode(we); err != nil {
			return fmt.Errorf("obs: events jsonl: %w", err)
		}
	}
	return bw.Flush()
}

// ReadEvents parses a JSONL event stream written by WriteEvents (or by
// hand): blank lines and '#' comments are skipped, unknown fields and
// unknown kinds are errors, and every error carries its line number.
// Malformed input returns an error — never a panic — which the fuzz
// harness pins.
func ReadEvents(r io.Reader) ([]Event, error) {
	var evs []Event
	err := lineio.JSONL(r, lineio.MaxLine, func(_ int, we *wireEvent) error {
		ev, err := fromWire(we)
		if err != nil {
			return err
		}
		evs = append(evs, ev)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("obs: events jsonl %w", err)
	}
	return evs, nil
}

// fromWire converts one line shape back to an event, checking that the
// payload present matches the declared kind.
func fromWire(we *wireEvent) (Event, error) {
	k, ok := KindFromString(we.Kind)
	if !ok {
		return Event{}, fmt.Errorf("unknown kind %q", we.Kind)
	}
	ev := Event{Kind: k, Seq: we.Seq, Round: we.Round}
	payloads := 0
	if we.Window != nil {
		payloads++
		ev.Window = *we.Window
		if k != KindWindow {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "window")
		}
	}
	if we.ShardWindow != nil {
		payloads++
		ev.ShardWindow = *we.ShardWindow
		if k != KindShardWindow {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "shard_window")
		}
	}
	if we.DomainWindow != nil {
		payloads++
		ev.DomainWindow = *we.DomainWindow
		if k != KindDomainWindow {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "domain_window")
		}
	}
	if we.Lane != nil {
		payloads++
		ev.Lane = *we.Lane
		if k != KindLanes {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "lane")
		}
	}
	if we.ShardCost != nil {
		payloads++
		ev.ShardCost = *we.ShardCost
		if k != KindShardCost {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "shard_cost")
		}
	}
	if we.Phase != nil {
		payloads++
		ev.Phase = fromWirePhase(we.Phase)
		if k != KindPhase {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "phase")
		}
	}
	if we.Recovery != nil {
		payloads++
		ev.Recovery = *we.Recovery
		if k != KindRecoveryStart && k != KindRecoveryEnd {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "recovery")
		}
	}
	if we.Faults != nil {
		payloads++
		ev.Faults = *we.Faults
		if k != KindFaults {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "faults")
		}
	}
	if we.Quarantine != nil {
		payloads++
		ev.Quarantine = *we.Quarantine
		if k != KindQuarantine {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "quarantine")
		}
	}
	if we.Alert != nil {
		payloads++
		ev.Alert = *we.Alert
		if k != KindAlert {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "alert")
		}
	}
	if we.Checkpoint != nil {
		payloads++
		ev.Checkpoint = *we.Checkpoint
		if k != KindCheckpoint {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "checkpoint")
		}
	}
	if we.Trace != nil {
		payloads++
		ev.Trace = *we.Trace
		if k != KindTrace {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "trace")
		}
		if err := ev.Trace.Validate(); err != nil {
			return Event{}, fmt.Errorf("trace payload: %w", err)
		}
	}
	if we.TraceHist != nil {
		payloads++
		ev.TraceHist = *we.TraceHist
		if k != KindTraceHist {
			return Event{}, fmt.Errorf("kind %q carries a %q payload", we.Kind, "trace_hist")
		}
	}
	if payloads != 1 {
		return Event{}, fmt.Errorf("kind %q must carry exactly one payload, got %d", we.Kind, payloads)
	}
	return ev, nil
}

// Sink pumps a broker subscription to an io.Writer on its own
// goroutine, one JSON line per event. Construct with NewSink or
// NewTraceSink; Close drains what is buffered, flushes, and reports
// the first write error.
type Sink struct {
	sub  *Subscription
	done chan struct{}
	name string // "event" or "trace", for errors

	mu  sync.Mutex
	err error
}

// NewSink subscribes to the broker (all kinds unless o.Kinds narrows
// them) and starts a pump that writes each event as its wire object.
// Returns nil if the broker is already closed. The pump stops when the
// broker closes or Close is called.
func NewSink(w io.Writer, b *Broker, o SubOptions) *Sink {
	return newSink(w, b, o, "event", func(enc *json.Encoder, ev *Event) error {
		we, err := toWire(ev)
		if err != nil {
			return err
		}
		return enc.Encode(we)
	})
}

// NewTraceSink subscribes to the broker's KindTrace stream alone and
// starts a pump that writes each event as a bare trace.Record line,
// the format trace.WriteRecords writes and cmd/lbtrace reads. The
// broker-side Seq is dropped on the way out, which is what makes the
// written stream byte-identical across worker counts. Returns nil if
// the broker is already closed; capacity <= 0 selects the default ring
// size.
func NewTraceSink(w io.Writer, b *Broker, capacity int) *Sink {
	o := SubOptions{Capacity: capacity, Kinds: Mask(KindTrace)}
	return newSink(w, b, o, "trace", func(enc *json.Encoder, ev *Event) error {
		return enc.Encode(&ev.Trace)
	})
}

func newSink(w io.Writer, b *Broker, o SubOptions, name string, encode func(*json.Encoder, *Event) error) *Sink {
	sub := b.Subscribe(o)
	if sub == nil {
		return nil
	}
	s := &Sink{sub: sub, done: make(chan struct{}), name: name}
	go s.pump(w, encode)
	return s
}

func (s *Sink) pump(w io.Writer, encode func(*json.Encoder, *Event) error) {
	defer close(s.done)
	bw := bufio.NewWriterSize(w, 64*1024)
	enc := json.NewEncoder(bw)
	buf := make([]Event, 0, 256)
	for {
		evs := s.sub.Wait(buf)
		if evs == nil {
			break
		}
		for i := range evs {
			if err := encode(enc, &evs[i]); err != nil {
				s.setErr(err)
				// Keep draining so the publisher-side ring empties, but
				// stop writing.
				for s.sub.Wait(buf) != nil {
				}
				return
			}
		}
		buf = evs
	}
	s.setErr(bw.Flush())
}

func (s *Sink) setErr(err error) {
	if err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = fmt.Errorf("obs: %s sink: %w", s.name, err)
	}
	s.mu.Unlock()
}

// Dropped reports how many events the sink's bounded ring shed.
func (s *Sink) Dropped() uint64 { return s.sub.Dropped() }

// Close stops the pump after the buffered events drain and returns the
// first error the sink hit (nil on a clean run). Safe to call after
// the broker closed; idempotent.
func (s *Sink) Close() error {
	s.sub.Close()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
