package dynamic

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// recordingRehome is a uniform re-home policy that keeps its own view
// of the up set through the RehomeObserver callbacks, so a test can
// hold every engine transition to it: a transition that forgets to
// tell the observer, or tells it twice, leaves the view wrong.
type recordingRehome struct {
	up  []bool
	nUp int
}

func (o *recordingRehome) ResetUp(n int) {
	o.up = make([]bool, n)
	for r := range o.up {
		o.up[r] = true
	}
	o.nUp = n
}

func (o *recordingRehome) ResourceDown(r int) {
	o.up[r] = false
	o.nUp--
}

func (o *recordingRehome) ResourceUp(r int) {
	o.up[r] = true
	o.nUp++
}

func (o *recordingRehome) Pick(s *core.State, up *UpSet, speeds []float64, from int, w float64, rr *rng.Rand) int {
	return up.Random(rr)
}

func (*recordingRehome) Name() string { return "recording" }

// TestTransitionBookkeeping holds every resource transition — churn,
// scripted lists, Step ops, quarantine evictions and releases — to the
// bookkeeping that has to move with it. After every round of random
// configurations under fault plans with partitions, a flap quarantine,
// stochastic churn and scripted DownList/UpList events, it checks that
// the re-home observer's view equals the up set, that the reachable
// set is the up set minus the resources a partition isolates, and that
// Downs − Ups equals the number of down resources. Half of the trials
// step through Engine.Step with random Down/Up ops.
func TestTransitionBookkeeping(t *testing.T) {
	r := rng.NewSeeded(0x7a25)
	var rounds, holds, evictions, partitions int
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		cfg := randomPropertyConfig(r)
		n := cfg.Graph.N()
		cfg.Faults = randomFaultPlan(r, n, cfg.Rounds)
		cfg.Quarantine = Quarantine{Flaps: 2 + r.Intn(3), Window: 20 + r.Intn(40), Cooloff: 10 + r.Intn(40)}
		cfg.Churn.LeaveProb = 0.1 + 0.3*r.Float64()
		cfg.Churn.JoinProb = 0.1 + 0.3*r.Float64()
		cfg.Churn.MinUp = n / 4
		// A block of resources that a listed event downs and a later
		// one revives, once or periodically.
		k := 1 + r.Intn(n/4)
		lo := r.Intn(n - k)
		block := make([]int, k)
		for i := range block {
			block[i] = lo + i
		}
		down := ChurnEvent{Round: r.Intn(cfg.Rounds / 2), DownList: block}
		upEv := ChurnEvent{Round: down.Round + 1 + r.Intn(15), UpList: block}
		if r.Bool(0.5) {
			down.Every = 20 + r.Intn(30)
			upEv.Every = down.Every
			upEv.Round = down.Round + 1 + r.Intn(down.Every-1)
		}
		cfg.Churn.Events = append(cfg.Churn.Events, down, upEv)
		rec := &recordingRehome{}
		cfg.Rehome = rec
		stepped := trial%2 == 1

		en, err := NewEngine(cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		e := en.e
		evicted, parted := false, false
		for round := 0; round < cfg.Rounds; round++ {
			if stepped {
				var in StepInput
				for i := r.Intn(n); i > 0; i-- {
					in.Weights = append(in.Weights, 1+3*r.Float64())
				}
				if r.Bool(0.2) {
					for i := 1 + r.Intn(3); i > 0; i-- {
						in.Down = append(in.Down, r.Intn(n))
					}
				}
				if r.Bool(0.2) {
					for i := 1 + r.Intn(3); i > 0; i-- {
						in.Up = append(in.Up, r.Intn(n))
					}
				}
				_, err = en.Step(in)
			} else {
				err = e.step(round)
			}
			if err != nil {
				en.Close()
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			rounds++
			evicted = evicted || e.quarForcedDown > 0
			parted = parted || e.reach.N() < e.up.N()
			if msg := transitionMismatch(e, rec); msg != "" {
				en.Close()
				t.Fatalf("trial %d (stepped %v) round %d: %s", trial, stepped, round, msg)
			}
		}
		en.Close()
		if e.res.Quarantined > 0 {
			holds++
		}
		if evicted {
			evictions++
		}
		if parted {
			partitions++
		}
	}
	t.Logf("%d trials, %d rounds: %d with holds, %d with evictions, %d with partitions",
		trials, rounds, holds, evictions, partitions)
	if holds < trials/4 || evictions == 0 || partitions < trials/4 {
		t.Fatalf("the draws stopped exercising the transitions: %d holds, %d evictions, %d partitions in %d trials",
			holds, evictions, partitions, trials)
	}
}

// transitionMismatch returns what the engine's transition bookkeeping
// gets wrong at a round boundary, or "" when it all agrees.
func transitionMismatch(e *engine, rec *recordingRehome) string {
	up := e.up
	if rec.nUp != up.N() {
		return fmt.Sprintf("observer counts %d up resources, the up set %d", rec.nUp, up.N())
	}
	reachN := 0
	for r := 0; r < e.n; r++ {
		if rec.up[r] != up.Contains(r) {
			return fmt.Sprintf("observer has resource %d up=%v, the up set %v", r, rec.up[r], up.Contains(r))
		}
		want := up.Contains(r) && !(e.inj != nil && e.inj.Isolated(r))
		if e.reach.Contains(r) != want {
			return fmt.Sprintf("reachable set has resource %d %v, want %v", r, e.reach.Contains(r), want)
		}
		if want {
			reachN++
		}
	}
	if e.reach.N() != reachN {
		return fmt.Sprintf("reachable set holds %d resources, want %d", e.reach.N(), reachN)
	}
	if got, want := e.res.Downs-e.res.Ups, e.n-up.N(); got != want {
		return fmt.Sprintf("Downs %d − Ups %d = %d, but %d resources are down", e.res.Downs, e.res.Ups, got, want)
	}
	return ""
}
