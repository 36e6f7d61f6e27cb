package obs

import "sync"

// The bounded ring-buffer pub/sub broker. One Broker serves one run:
// the engine publishes from its sequential round-loop sections, any
// number of subscribers (a CLI debug renderer, the Prometheus
// exporter, a JSONL sink, a live dashboard) each own a fixed-capacity
// ring the publish path copies events into. The publisher NEVER blocks
// and NEVER allocates: a subscriber that falls behind loses events per
// its drop policy, and every loss is counted (Subscription.Dropped),
// so bounded lag is an explicit, observable contract instead of a
// backpressure channel into the round loop.

// DropPolicy says which events a full subscription ring sacrifices.
type DropPolicy uint8

const (
	// DropOldest overwrites the ring's oldest buffered event — the
	// subscriber sees the freshest window of the stream (the default).
	DropOldest DropPolicy = iota
	// DropNewest discards the incoming event — the subscriber sees a
	// contiguous prefix of the stream.
	DropNewest
)

// defaultCapacity sizes subscription rings when SubOptions.Capacity is
// zero: enough for several telemetry cadences of a many-shard run.
const defaultCapacity = 1024

// SubOptions configures one subscription.
type SubOptions struct {
	// Capacity is the ring size in events; 0 selects the default
	// (1024). The ring is allocated once at Subscribe time — the
	// publish path never grows it.
	Capacity int
	// Kinds selects which event kinds the subscription receives; the
	// zero mask selects all kinds.
	Kinds KindMask
	// Policy picks which side of a full ring loses events.
	Policy DropPolicy
}

// Broker fans published events out to its subscriptions. The zero
// value is not usable; construct with NewBroker. Publish is intended
// for a single publisher goroutine (the engine's sequential sections);
// Subscribe/Close and all Subscription methods are safe from any
// goroutine.
type Broker struct {
	mu     sync.Mutex
	subs   []*Subscription
	seq    uint64
	closed bool
}

// NewBroker returns an empty broker.
func NewBroker() *Broker { return &Broker{} }

// Subscribe attaches a new subscription. Subscribing mid-run is legal:
// the subscription sees events published after it attached. Returns
// nil if the broker is already closed.
func (b *Broker) Subscribe(o SubOptions) *Subscription {
	capacity := o.Capacity
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	s := &Subscription{
		b:      b,
		mask:   o.Kinds,
		policy: o.Policy,
		ring:   make([]Event, capacity),
	}
	s.cond = sync.NewCond(&s.mu)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.subs = append(b.subs, s)
	return s
}

// Publish assigns the event its sequence number and copies it into
// every matching subscription's ring. It never blocks and never
// allocates; full rings drop per their policy. The event value is
// copied — the caller may reuse it immediately.
func (b *Broker) Publish(ev *Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.seq++
	ev.Seq = b.seq
	for _, s := range b.subs {
		if s.mask.Has(ev.Kind) {
			s.push(ev)
		}
	}
	b.mu.Unlock()
}

// Published returns the total number of events published so far.
func (b *Broker) Published() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// ResumeSeq fast-forwards the publish sequence counter to seq (no-op
// if the broker is already past it). Checkpoint resume uses it so a
// resumed run's event stream continues the numbering the interrupted
// run left off at — concatenating the pre-crash and post-resume
// streams reproduces the uninterrupted stream byte for byte.
func (b *Broker) ResumeSeq(seq uint64) {
	b.mu.Lock()
	if seq > b.seq {
		b.seq = seq
	}
	b.mu.Unlock()
}

// Dropped sums the drop counters over all attached subscriptions.
func (b *Broker) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var total uint64
	for _, s := range b.subs {
		total += s.Dropped()
	}
	return total
}

// Close marks the stream complete: no further events will be
// published, and every subscription's blocking Wait returns once its
// buffered events are drained. Idempotent.
func (b *Broker) Close() {
	b.mu.Lock()
	subs := b.subs
	b.subs = nil
	b.closed = true
	b.mu.Unlock()
	for _, s := range subs {
		s.markClosed()
	}
}

// unsubscribe detaches s (called by Subscription.Close).
func (b *Broker) unsubscribe(target *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.subs {
		if s == target {
			last := len(b.subs) - 1
			b.subs[i] = b.subs[last]
			b.subs[last] = nil
			b.subs = b.subs[:last]
			return
		}
	}
}

// Subscription is one subscriber's bounded view of the event stream.
// All methods are safe for concurrent use; Poll/Wait are intended for
// a single consumer goroutine.
type Subscription struct {
	b      *Broker
	mask   KindMask
	policy DropPolicy

	mu      sync.Mutex
	cond    *sync.Cond
	ring    []Event
	start   int // index of the oldest buffered event
	n       int // buffered event count
	dropped uint64
	closed  bool
}

// push copies the event into the ring, applying the drop policy when
// full. Called with the broker lock held (publish order is therefore
// identical across subscriptions).
func (s *Subscription) push(ev *Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.ring) {
		s.dropped++
		if s.policy == DropNewest {
			s.mu.Unlock()
			return
		}
		// DropOldest: overwrite the tail and advance.
		s.ring[s.start] = *ev
		s.start++
		if s.start == len(s.ring) {
			s.start = 0
		}
		s.mu.Unlock()
		s.cond.Signal()
		return
	}
	idx := s.start + s.n
	if idx >= len(s.ring) {
		idx -= len(s.ring)
	}
	s.ring[idx] = *ev
	s.n++
	s.mu.Unlock()
	s.cond.Signal()
}

// drainLocked copies up to cap(buf) buffered events into buf[:0].
func (s *Subscription) drainLocked(buf []Event) []Event {
	buf = buf[:0]
	for s.n > 0 && len(buf) < cap(buf) {
		buf = append(buf, s.ring[s.start])
		s.start++
		if s.start == len(s.ring) {
			s.start = 0
		}
		s.n--
	}
	return buf
}

// Poll non-blockingly moves buffered events into buf (reusing its
// backing array; at most cap(buf) events, so a caller-owned buffer
// keeps the drain allocation-free). An empty result means no events
// were buffered. Call again to keep draining a burst.
func (s *Subscription) Poll(buf []Event) []Event {
	if cap(buf) == 0 {
		buf = make([]Event, 0, 64)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainLocked(buf)
}

// Wait blocks until events are available (returning them like Poll) or
// the stream ends; it returns nil once the subscription is closed AND
// every buffered event has been drained — the sink-goroutine loop is
// simply `for evs := sub.Wait(buf); evs != nil; evs = sub.Wait(buf)`.
func (s *Subscription) Wait(buf []Event) []Event {
	if cap(buf) == 0 {
		buf = make([]Event, 0, 64)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.n == 0 && s.closed {
		return nil
	}
	return s.drainLocked(buf)
}

// Dropped returns how many events this subscription lost to its
// bounded ring — the lag contract's meter.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from its broker and wakes a blocked
// Wait; buffered events remain drainable. Idempotent.
func (s *Subscription) Close() {
	s.b.unsubscribe(s)
	s.markClosed()
}

func (s *Subscription) markClosed() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}
