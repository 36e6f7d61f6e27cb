package dynamic

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/walk"
)

// testDomains labels the n resources as four contiguous "rack"
// domains — the synthetic layout the CLI's -synthracks produces.
func testDomains(n int) []obs.Domains {
	of := make([]int32, n)
	for r := range of {
		of[r] = int32(r * 4 / n)
	}
	return []obs.Domains{{Level: "rack", Of: of,
		Names: []string{"rack0", "rack1", "rack2", "rack3"}}}
}

// drainAll empties a subscription after the run finished (every event
// is already buffered, so Poll alone drains it).
func drainAll(sub *obs.Subscription) []obs.Event {
	var all []obs.Event
	buf := make([]obs.Event, 0, 256)
	for {
		evs := sub.Poll(buf)
		if len(evs) == 0 {
			return all
		}
		all = append(all, evs...)
	}
}

// TestObserverDeterminism is the golden observer test: attaching the
// full observability stack — a broker with an all-kinds subscription,
// per-shard windows and domain windows — must leave
// the Result bit-for-bit identical to the unobserved run for every
// worker count, and the fleet-level event stream (windows, domain
// windows, recovery episodes) must itself be identical across worker
// counts once broker sequence numbers are cleared. The workload
// includes a mass failure so recovery-episode events fire.
func TestObserverDeterminism(t *testing.T) {
	const n = 200
	g := graph.RandomRegular(n, 8, rng.NewSeeded(21))
	build := func(seed uint64, workers int) Config {
		return goldenConfig(n, core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			g, Churn{
				MinUp: 50,
				Events: []ChurnEvent{
					{Round: 60, Down: 100},
					{Round: 150, Up: 100},
				},
			}, seed, workers)
	}
	fleetKinds := obs.Mask(obs.KindWindow, obs.KindDomainWindow,
		obs.KindRecoveryStart, obs.KindRecoveryEnd)
	for _, seed := range []uint64{1, 2, 3} {
		var ref Result
		var refFleet []obs.Event
		for _, workers := range []int{1, 2, 4, 8} {
			plain, err := Run(build(seed, workers))
			if err != nil {
				t.Fatalf("seed %d workers %d unobserved: %v", seed, workers, err)
			}

			cfg := build(seed, workers)
			cfg.Domains = testDomains(n)
			broker := obs.NewBroker()
			cfg.Obs = broker
			sub := broker.Subscribe(obs.SubOptions{Capacity: 1 << 15})
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("seed %d workers %d observed: %v", seed, workers, err)
			}
			broker.Close()

			// Invariant 1: observation never perturbs the simulation.
			if !reflect.DeepEqual(res, plain) {
				t.Fatalf("seed %d workers %d: observer changed the Result\nobserved   %+v\nunobserved %+v",
					seed, workers, res, plain)
			}
			// Invariant 2: golden cross-worker determinism holds with
			// subscribers attached.
			if workers == 1 {
				ref = res
			} else if !reflect.DeepEqual(res, ref) {
				t.Fatalf("seed %d: observed workers=%d run diverges from sequential\ngot  %+v\nwant %+v",
					seed, workers, res, ref)
			}

			evs := drainAll(sub)
			if sub.Dropped() != 0 {
				t.Fatalf("seed %d workers %d: capacity-%d subscription dropped %d events",
					seed, workers, 1<<15, sub.Dropped())
			}
			if len(evs) == 0 {
				t.Fatalf("seed %d workers %d: no events published", seed, workers)
			}
			checkEventStream(t, evs, n, workers, seed)

			// Window events arrive in round order for any worker count.
			lastEnd := -1
			for _, ev := range evs {
				if ev.Kind != obs.KindWindow {
					continue
				}
				if ev.Window.End <= lastEnd {
					t.Fatalf("seed %d workers %d: window ending at %d follows one ending at %d",
						seed, workers, ev.Window.End, lastEnd)
				}
				lastEnd = ev.Window.End
			}

			// Invariant 3: the fleet-level stream — windows, domain
			// windows, recovery transitions — is identical across worker
			// counts once broker-assigned Seq numbers are cleared.
			// (Shard-scoped events legitimately differ: the partition IS
			// the worker count.)
			var fleet []obs.Event
			for _, ev := range evs {
				if fleetKinds.Has(ev.Kind) {
					ev.Seq = 0
					fleet = append(fleet, ev)
				}
			}
			if workers == 1 {
				refFleet = fleet
				hasRec := false
				for _, ev := range fleet {
					if ev.Kind == obs.KindRecoveryStart {
						hasRec = true
					}
				}
				if !hasRec {
					t.Fatalf("seed %d: mass failure published no recovery events", seed)
				}
			} else if !reflect.DeepEqual(fleet, refFleet) {
				t.Fatalf("seed %d: workers=%d fleet-level event stream diverges (%d vs %d events)",
					seed, workers, len(fleet), len(refFleet))
			}
		}
	}
}

// checkEventStream validates the per-run structural invariants of the
// full event feed: monotone rounds per kind-class, shard windows that
// partition [0, n) for every metrics window, and lane/phase events
// consistent with the shard count.
func checkEventStream(t *testing.T, evs []obs.Event, n, workers int, seed uint64) {
	t.Helper()
	lastSeq := uint64(0)
	shardCover := map[int]int{} // window end -> resources covered
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("seed %d workers %d: Seq not strictly increasing (%d after %d)",
				seed, workers, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case obs.KindShardWindow:
			sw := ev.ShardWindow
			if sw.Lo < 0 || sw.Hi > n || sw.Lo >= sw.Hi {
				t.Fatalf("seed %d workers %d: bad shard window range [%d,%d)", seed, workers, sw.Lo, sw.Hi)
			}
			shardCover[sw.End] += sw.Hi - sw.Lo
		case obs.KindDomainWindow:
			if ev.DomainWindow.Level != "rack" || ev.DomainWindow.Name == "" {
				t.Fatalf("seed %d workers %d: bad domain window %+v", seed, workers, ev.DomainWindow)
			}
		case obs.KindLanes:
			if s := ev.Lane.Shard; s < 0 || s >= workers {
				t.Fatalf("seed %d workers %d: lane event for shard %d", seed, workers, s)
			}
		case obs.KindPhase:
			if s := ev.Phase.Shard; s < -1 || s >= workers {
				t.Fatalf("seed %d workers %d: phase event for shard %d", seed, workers, s)
			}
		}
	}
	if len(shardCover) == 0 {
		t.Fatalf("seed %d workers %d: no shard window events", seed, workers)
	}
	for end, covered := range shardCover {
		if covered != n {
			t.Fatalf("seed %d workers %d: shard windows ending at %d cover %d of %d resources",
				seed, workers, end, covered, n)
		}
	}
}

// TestObserverMidRunSubscribe: a subscription opened from a round
// callback mid-run sees only later events and still cannot perturb the
// outcome — the broker supports live attach the way the HTTP exporter
// needs.
func TestObserverMidRunSubscribe(t *testing.T) {
	const n = 120
	g := graph.Complete(n)
	build := func() Config {
		return goldenConfig(n, core.UserControlled{Alpha: 1}, g,
			Churn{LeaveProb: 0.2, JoinProb: 0.2, MinUp: 60}, 7, 4)
	}
	plain, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	cfg := build()
	broker := obs.NewBroker()
	cfg.Obs = broker
	var late *obs.Subscription
	cfg.OnRound = func(round int, s *core.State) {
		if late == nil && round+1 >= 100 {
			late = broker.Subscribe(obs.SubOptions{Capacity: 1 << 14,
				Kinds: obs.Mask(obs.KindWindow)})
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	broker.Close()
	if !reflect.DeepEqual(res, plain) {
		t.Fatalf("mid-run subscriber changed the Result:\ngot  %+v\nwant %+v", res, plain)
	}
	if late == nil {
		t.Fatal("round callback never fired past round 100")
	}
	evs := drainAll(late)
	if len(evs) == 0 {
		t.Fatal("late subscription saw no window events")
	}
	for _, ev := range evs {
		if ev.Kind != obs.KindWindow {
			t.Fatalf("mask leak: %v event on a window-only subscription", ev.Kind)
		}
		// The subscription opens at the end of round 99, before the
		// round-100 flush, so that window lands in it; earlier ones
		// must not.
		if ev.Round < 100 {
			t.Fatalf("late subscription saw pre-attach event from round %d", ev.Round)
		}
	}
}
