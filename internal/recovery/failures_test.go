package recovery

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dynamic"
)

// TestFailureModelValidate pins the parameter checks.
func TestFailureModelValidate(t *testing.T) {
	topo, _ := Synth(40, 4, 2)
	cases := []struct {
		name string
		m    FailureModel
		ok   bool
	}{
		{"no-topo", FailureModel{RackMTBF: 100, RackMTTR: 10}, false},
		{"nothing-enabled", FailureModel{Topo: topo}, false},
		{"rack-half-set", FailureModel{Topo: topo, RackMTBF: 100}, false},
		{"rack", FailureModel{Topo: topo, RackMTBF: 100, RackMTTR: 10}, true},
		{"resource", FailureModel{Topo: topo, ResourceMTBF: 50, ResourceMTTR: 5}, true},
		{"flap-no-times", FailureModel{Topo: topo, FlapResources: 3}, false},
		{"flap-too-many", FailureModel{Topo: topo, FlapResources: 99, FlapMTBF: 2, FlapMTTR: 2}, false},
		{"flap", FailureModel{Topo: topo, FlapResources: 3, FlapMTBF: 4, FlapMTTR: 2}, true},
		{"flap-nan-mtbf", FailureModel{Topo: topo, FlapResources: 3, FlapMTBF: math.NaN(), FlapMTTR: 2}, false},
		{"flap-nan-mttr", FailureModel{Topo: topo, FlapResources: 3, FlapMTBF: 4, FlapMTTR: math.NaN()}, false},
		{"all", FailureModel{Topo: topo, RackMTBF: 100, RackMTTR: 10,
			ResourceMTBF: 50, ResourceMTTR: 5, FlapResources: 2, FlapMTBF: 4, FlapMTTR: 2}, true},
	}
	for _, tc := range cases {
		if err := tc.m.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestCompileDeterministicAndValid is the compiler's core contract:
// the schedule is a pure function of (model, horizon, seed), passes
// the engine's config-time validation by construction, fires within
// the horizon, and every compiled event is a one-shot.
func TestCompileDeterministicAndValid(t *testing.T) {
	topo, err := Synth(80, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := FailureModel{
		Topo:     topo,
		RackMTBF: 120, RackMTTR: 30,
		ResourceMTBF: 200, ResourceMTTR: 20,
		FlapResources: 4, FlapMTBF: 15, FlapMTTR: 5,
	}
	for _, seed := range []uint64{1, 2, 3} {
		a, err := m.Compile(600, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Compile(600, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Compile is not deterministic", seed)
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: compiled schedule is empty", seed)
		}
		if err := dynamic.ValidateEvents(a, 80, 600); err != nil {
			t.Fatalf("seed %d: compiled schedule fails validation: %v", seed, err)
		}
		lastRound := -1
		kills := 0
		for _, ev := range a {
			if ev.Every != 0 || ev.Down != 0 || ev.Up != 0 {
				t.Fatalf("seed %d: compiled event is not a pure one-shot list event: %+v", seed, ev)
			}
			if ev.Round < 0 || ev.Round >= 600 {
				t.Fatalf("seed %d: event outside horizon: %+v", seed, ev)
			}
			if ev.Round <= lastRound {
				t.Fatalf("seed %d: events not strictly ascending by round", seed)
			}
			lastRound = ev.Round
			kills += len(ev.DownList)
		}
		if kills == 0 {
			t.Fatalf("seed %d: schedule never kills anything", seed)
		}
	}
	c, err := m.Compile(600, 99)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.Compile(600, 1)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the identical schedule")
	}
}

// TestCompileRackLossIsCorrelated pins the point of the model: a
// rack-only process kills whole racks — every DownList is exactly the
// up members of one rack (the first failure of each rack is its full
// member list).
func TestCompileRackLossIsCorrelated(t *testing.T) {
	topo, err := Synth(60, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := FailureModel{Topo: topo, RackMTBF: 50, RackMTTR: 10}
	events, err := m.Compile(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	sawKill := false
	for _, ev := range events {
		if len(ev.DownList) == 0 {
			continue
		}
		sawKill = true
		// All killed resources of one event must group into whole racks:
		// count per rack and compare against the rack's member count
		// minus members already down — the first event is the clean case.
		perRack := map[int]int{}
		for _, r := range ev.DownList {
			perRack[topo.RackOf(r)]++
		}
		for k, c := range perRack {
			if c > len(topo.RackMembers(k)) {
				t.Fatalf("event %+v kills more than rack %d holds", ev, k)
			}
		}
		if len(perRack) == 0 {
			t.Fatal("unreachable")
		}
	}
	if !sawKill {
		t.Fatal("no rack was ever killed")
	}
	// The first kill event must be one or more FULL racks (nothing was
	// down before it).
	for _, ev := range events {
		if len(ev.DownList) == 0 {
			continue
		}
		perRack := map[int]int{}
		for _, r := range ev.DownList {
			perRack[topo.RackOf(r)]++
		}
		for k, c := range perRack {
			if c != len(topo.RackMembers(k)) {
				t.Fatalf("first failure of rack %d kills %d of %d members", k, c, len(topo.RackMembers(k)))
			}
		}
		break
	}
}

// TestCompileRates sanity-checks the renewal processes: over a long
// horizon the number of rack failures lands within a loose factor of
// horizon/(MTBF+MTTR) per rack.
func TestCompileRates(t *testing.T) {
	topo, err := Synth(40, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 20_000
	m := FailureModel{Topo: topo, RackMTBF: 400, RackMTTR: 100}
	events, err := m.Compile(horizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	kills := 0
	for _, ev := range events {
		if len(ev.DownList) > 0 {
			kills++
		}
	}
	// 4 racks × horizon/(MTBF+MTTR) = 4 × 40 = 160 expected failure
	// events (some coincide in a round; the bound stays loose).
	if kills < 60 || kills > 400 {
		t.Fatalf("rack-loss events = %d, want within [60, 400] of the ~160 expectation", kills)
	}
}

// TestCompileThroughEngine replays a compiled correlated schedule
// through the full engine with a Locality policy: the run must
// complete with invariants on, see every scripted loss, and stay
// worker-count invariant.
func TestCompileThroughEngine(t *testing.T) {
	topo, err := Synth(64, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := FailureModel{Topo: topo, RackMTBF: 60, RackMTTR: 15, FlapResources: 2, FlapMTBF: 10, FlapMTTR: 3}
	events, err := m.Compile(200, 11)
	if err != nil {
		t.Fatal(err)
	}
	var ref dynamic.Result
	for _, workers := range []int{1, 4} {
		cfg := recoverConfig(topo, events, 11, workers, &Locality{Topo: topo})
		cfg.CheckInvariants = true
		res, err := dynamic.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref = res
			if res.Downs == 0 || res.Rehomed == 0 {
				t.Fatalf("compiled schedule produced no churn: %+v", res)
			}
			if len(res.Recoveries) == 0 {
				t.Fatal("no recovery episodes recorded")
			}
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatal("compiled schedule run diverges across workers")
		}
	}
}
