package obs

import (
	"sync"
	"testing"
)

func winEvent(round int) Event {
	return Event{
		Kind:  KindWindow,
		Round: round,
		Window: WindowStats{
			Start: round - 1, End: round,
			MeanLoad: float64(round),
		},
	}
}

// TestBrokerRoundtrip publishes a burst and drains it back in order.
func TestBrokerRoundtrip(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(SubOptions{Capacity: 16})
	if sub == nil {
		t.Fatal("Subscribe returned nil on open broker")
	}
	for r := 1; r <= 10; r++ {
		ev := winEvent(r)
		b.Publish(&ev)
	}
	if got := b.Published(); got != 10 {
		t.Fatalf("Published = %d, want 10", got)
	}
	got := sub.Poll(nil)
	if len(got) != 10 {
		t.Fatalf("Poll returned %d events, want 10", len(got))
	}
	for i, ev := range got {
		if ev.Round != i+1 {
			t.Errorf("event %d: Round = %d, want %d", i, ev.Round, i+1)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Window.MeanLoad != float64(i+1) {
			t.Errorf("event %d: payload MeanLoad = %g, want %d", i, ev.Window.MeanLoad, i+1)
		}
	}
	if d := sub.Dropped(); d != 0 {
		t.Errorf("Dropped = %d, want 0", d)
	}
	if more := sub.Poll(got); len(more) != 0 {
		t.Errorf("second Poll returned %d events, want 0", len(more))
	}
}

// TestBrokerKindFilter checks that a masked subscription only sees its
// kinds while an unmasked one sees everything, with shared seq order.
func TestBrokerKindFilter(t *testing.T) {
	b := NewBroker()
	all := b.Subscribe(SubOptions{Capacity: 16})
	only := b.Subscribe(SubOptions{Capacity: 16, Kinds: Mask(KindLanes)})

	for r := 1; r <= 3; r++ {
		w := winEvent(r)
		b.Publish(&w)
		l := Event{Kind: KindLanes, Round: r, Lane: LaneStats{Shard: r, Inbound: int64(r) * 10}}
		b.Publish(&l)
	}
	if got := len(all.Poll(nil)); got != 6 {
		t.Errorf("unmasked subscription got %d events, want 6", got)
	}
	lanes := only.Poll(nil)
	if len(lanes) != 3 {
		t.Fatalf("masked subscription got %d events, want 3", len(lanes))
	}
	for i, ev := range lanes {
		if ev.Kind != KindLanes {
			t.Errorf("event %d: Kind = %v, want lanes", i, ev.Kind)
		}
		if want := uint64(2 * (i + 1)); ev.Seq != want {
			t.Errorf("event %d: Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestBrokerDropOldest fills a tiny ring past capacity and checks the
// survivor set is the freshest suffix with an accurate drop count.
func TestBrokerDropOldest(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(SubOptions{Capacity: 4, Policy: DropOldest})
	for r := 1; r <= 10; r++ {
		ev := winEvent(r)
		b.Publish(&ev)
	}
	got := sub.Poll(nil)
	if len(got) != 4 {
		t.Fatalf("Poll returned %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := 7 + i; ev.Round != want {
			t.Errorf("event %d: Round = %d, want %d (freshest suffix)", i, ev.Round, want)
		}
	}
	if d := sub.Dropped(); d != 6 {
		t.Errorf("Dropped = %d, want 6", d)
	}
}

// TestBrokerDropNewest keeps the contiguous prefix instead.
func TestBrokerDropNewest(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(SubOptions{Capacity: 4, Policy: DropNewest})
	for r := 1; r <= 10; r++ {
		ev := winEvent(r)
		b.Publish(&ev)
	}
	got := sub.Poll(nil)
	if len(got) != 4 {
		t.Fatalf("Poll returned %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := 1 + i; ev.Round != want {
			t.Errorf("event %d: Round = %d, want %d (contiguous prefix)", i, ev.Round, want)
		}
	}
	if d := sub.Dropped(); d != 6 {
		t.Errorf("Dropped = %d, want 6", d)
	}
}

// TestBrokerPollBounded drains in caller-sized chunks.
func TestBrokerPollBounded(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(SubOptions{Capacity: 16})
	for r := 1; r <= 10; r++ {
		ev := winEvent(r)
		b.Publish(&ev)
	}
	buf := make([]Event, 0, 3)
	var rounds []int
	for {
		evs := sub.Poll(buf)
		if len(evs) == 0 {
			break
		}
		if len(evs) > 3 {
			t.Fatalf("Poll returned %d events with cap-3 buffer", len(evs))
		}
		for _, ev := range evs {
			rounds = append(rounds, ev.Round)
		}
	}
	if len(rounds) != 10 {
		t.Fatalf("chunked drain saw %d events, want 10", len(rounds))
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Errorf("position %d: Round = %d, want %d", i, r, i+1)
		}
	}
}

// TestBrokerCloseWakesWait: a blocked Wait returns buffered events and
// then nil after Close, terminating the sink loop.
func TestBrokerCloseWakesWait(t *testing.T) {
	b := NewBroker()
	sub := b.Subscribe(SubOptions{Capacity: 8})
	ev := winEvent(1)
	b.Publish(&ev)

	done := make(chan []int, 1)
	go func() {
		var rounds []int
		buf := make([]Event, 0, 4)
		for {
			evs := sub.Wait(buf)
			if evs == nil {
				break
			}
			for _, e := range evs {
				rounds = append(rounds, e.Round)
			}
		}
		done <- rounds
	}()

	ev2 := winEvent(2)
	b.Publish(&ev2)
	b.Close()
	rounds := <-done
	if len(rounds) < 1 || rounds[len(rounds)-1] != 2 {
		t.Fatalf("sink drained rounds %v, want suffix ending in 2", rounds)
	}
	// Publishing after close is a silent no-op.
	ev3 := winEvent(3)
	b.Publish(&ev3)
	if got := b.Published(); got != 2 {
		t.Errorf("Published after close = %d, want 2", got)
	}
	if s := b.Subscribe(SubOptions{}); s != nil {
		t.Error("Subscribe on closed broker returned non-nil")
	}
}

// TestSubscriptionClose detaches one subscription without disturbing
// the others.
func TestSubscriptionClose(t *testing.T) {
	b := NewBroker()
	s1 := b.Subscribe(SubOptions{Capacity: 8})
	s2 := b.Subscribe(SubOptions{Capacity: 8})
	ev := winEvent(1)
	b.Publish(&ev)
	s1.Close()
	s1.Close() // idempotent
	ev2 := winEvent(2)
	b.Publish(&ev2)
	if got := len(b.subs); got != 1 {
		t.Errorf("%d subscriptions attached, want 1", got)
	}
	// s1 keeps its pre-close buffer but sees nothing new.
	if evs := s1.Poll(nil); len(evs) != 1 || evs[0].Round != 1 {
		t.Errorf("closed sub drained %d events, want just round 1", len(evs))
	}
	if evs := s2.Poll(nil); len(evs) != 2 {
		t.Errorf("surviving sub drained %d events, want 2", len(evs))
	}
}

// TestBrokerPublishZeroAlloc: the publish fan-out must not allocate —
// it sits on the engine's round loop.
func TestBrokerPublishZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	b := NewBroker()
	_ = b.Subscribe(SubOptions{Capacity: 64, Policy: DropOldest})
	_ = b.Subscribe(SubOptions{Capacity: 4, Policy: DropNewest, Kinds: Mask(KindWindow, KindLanes)})
	ev := winEvent(1)
	allocs := testing.AllocsPerRun(1000, func() {
		b.Publish(&ev)
		lane := &ev // reuse: exercise the copy semantics
		lane.Kind = KindLanes
		b.Publish(lane)
		lane.Kind = KindWindow
	})
	if allocs != 0 {
		t.Fatalf("Publish allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestBrokerPollZeroAlloc: draining into a caller-owned buffer must
// not allocate either.
func TestBrokerPollZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	b := NewBroker()
	sub := b.Subscribe(SubOptions{Capacity: 64})
	buf := make([]Event, 0, 64)
	ev := winEvent(1)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			b.Publish(&ev)
		}
		buf = sub.Poll(buf)
		if len(buf) != 8 {
			t.Fatalf("drained %d, want 8", len(buf))
		}
	})
	if allocs != 0 {
		t.Fatalf("Publish+Poll allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestBrokerConcurrent is a race-detector smoke: one publisher, three
// consumers (two polling, one waiting), churning subscriptions.
func TestBrokerConcurrent(t *testing.T) {
	b := NewBroker()
	sub1 := b.Subscribe(SubOptions{Capacity: 32})
	sub2 := b.Subscribe(SubOptions{Capacity: 8, Policy: DropNewest})
	waiter := b.Subscribe(SubOptions{Capacity: 32})

	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for r := 1; r <= 500; r++ {
			ev := winEvent(r)
			b.Publish(&ev)
			if r == 250 {
				sub2.Close()
			}
		}
		b.Close()
	}()
	poll := func(s *Subscription) {
		defer wg.Done()
		buf := make([]Event, 0, 16)
		for i := 0; i < 1000; i++ {
			buf = s.Poll(buf)
		}
	}
	go poll(sub1)
	go poll(sub2)
	go func() {
		defer wg.Done()
		buf := make([]Event, 0, 16)
		last := uint64(0)
		for {
			evs := waiter.Wait(buf)
			if evs == nil {
				return
			}
			for _, ev := range evs {
				if ev.Seq <= last {
					t.Errorf("Wait saw non-monotonic Seq %d after %d", ev.Seq, last)
					return
				}
				last = ev.Seq
			}
		}
	}()
	wg.Wait()
}
