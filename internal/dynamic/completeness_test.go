package dynamic

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

// checkpointScratch names, as "Type.field", every field reachable from
// the engine that a checkpoint deliberately does not carry, each with
// the reason a resumed run needs no copy of it.
var checkpointScratch = map[string]string{
	"engine.curRound":     "the round in progress, set at the start of every round",
	"engine.startRound":   "where run enters its loop: 0 when fresh, the recorded nextRound after Resume",
	"engine.ev":           "reusable event buffer, overwritten before every publish",
	"engine.ckpt":         "the writing codec, built by Resume over the buffer it read or at a fresh engine's first checkpoint; it holds output, not state",
	"engine.shards":       "per-worker round scratch and boundaries, which rebalancing re-cuts from measured cost",
	"engine.weightsBuf":   "this round's arrival weights, drawn afresh every round",
	"engine.loadBuf":      "window load scratch, refilled at every flush",
	"engine.normBuf":      "window load-per-speed scratch, refilled at every flush",
	"engine.domAgg":       "per-domain window scratch, reset at every flush",
	"engine.traceBuf":     "evacuation trace-record drain scratch, emptied within the round",
	"engine.phaseNanos":   "measured wall-clock phase times, telemetry only",
	"engine.wShardArr":    "per-shard window counts, attributed by wall-clock shard bounds",
	"engine.wShardDep":    "per-shard window counts, attributed by wall-clock shard bounds",
	"engine.wShardInb":    "per-shard window counts, attributed by wall-clock shard bounds",
	"Exchange.srcs":       "per-round routing scratch: each source shard's sort and cuts",
	"Exchange.dsts":       "per-round merge scratch: each destination shard's heads and partials",
	"Exchange.lanes":      "lane telemetry counters, reset every telemetry window",
	"Injector.due":        "the batch the last Tick delivered, rebuilt by every Tick",
	"Injector.dueInfo":    "annotations of the last Tick's batch, rebuilt by every Tick",
	"Injector.isoBuf":     "StartRound's isolated-resource delta list, rebuilt every round",
	"SelfTuner.thr":       "threshold scratch, rewritten in full at every refresh",
	"SelfTuner.zEst":      "diffusion buffer, seeded from est at every refresh",
	"SelfTuner.zEstNext":  "diffusion buffer, written by every diffusion step",
	"SelfTuner.zUp":       "diffusion buffer, seeded from upw at every refresh",
	"SelfTuner.zUpNext":   "diffusion buffer, written by every diffusion step",
	"SelfTuner.src":       "the pooled sweep's input buffer, set before every step",
	"SelfTuner.dst":       "the pooled sweep's output buffer, set before every step",
	"SelfTuner.srcU":      "the pooled sweep's input buffer, set before every step",
	"SelfTuner.dstU":      "the pooled sweep's output buffer, set before every step",
	"SelfTuner.diffuseUp": "set at the start of every pooled refresh",
	"State.seen":          "CheckInvariants' per-task scratch, cleared at every call",
}

// TestCheckpointCompleteness round-trips a busy engine through
// Checkpoint and Resume, then walks both engines by reflection — the
// engine struct, its config with the tuner, the re-homer, the fault
// injector, the core state with its stacks, and the task set — and
// requires every field to be equal unless checkpointScratch names it.
// A field added to the engine or to one of its layers and left out of
// the snapshot fails here, before it can make a resumed run diverge.
func TestCheckpointCompleteness(t *testing.T) {
	const n, rounds = 64, 20
	g := graph.RandomRegular(n, 6, rng.NewSeeded(5))
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1 + float64(i%3)
	}
	broker := obs.NewBroker() // external to both engines: shared, not compared
	defer broker.Close()
	sub := broker.Subscribe(obs.SubOptions{Capacity: 1 << 16})
	defer sub.Close()
	domains := obs.Domains{Level: "half", Names: []string{"low", "high"}, Of: make([]int32, n)}
	for r := n / 2; r < n; r++ {
		domains.Of[r] = 1
	}
	build := func() Config {
		return Config{
			Graph:    g,
			Speeds:   speeds,
			Protocol: core.ResourceControlled{Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			Arrivals: Poisson{Rate: 0.8 * 2 * n / paretoMean, Weights: task.Pareto{Alpha: 2, Cap: 20}},
			Service:  WeightProportional{Rate: 1},
			Dispatch: HotspotDispatch{Resource: 3},
			Rehome:   &SpeedWeighted{},
			Tuner: &SelfTuner{Eps: 0.5, Every: 5, Steps: 2,
				Kernel: walk.NewLazy(walk.NewMaxDegree(g))},
			Churn: Churn{LeaveProb: 0.3, JoinProb: 0.3, MinUp: n / 2,
				Events: []ChurnEvent{{Round: 8, Down: 6}}},
			Faults: &faults.Plan{Loss: 0.2, DelayProb: 0.3, DelayMax: 5, DupProb: 0.1,
				RetryBase: 1, RetryCap: 4, Timeout: 10,
				Partitions: []faults.Partition{{Start: 5, End: 30, Members: []int{0, 1, 2, 3, 4, 5, 6, 7}}}},
			Quarantine:   Quarantine{Flaps: 2, Window: 10, Cooloff: 6},
			Obs:          broker,
			Domains:      []obs.Domains{domains},
			AlertBudget:  0.1,
			AlertWindows: 1,
			TraceSample:  0.5,
			Rounds:       40,
			Window:       7,
			Seed:         0xc0ffee,
			Workers:      2,
		}
	}
	orig, err := NewEngine(build())
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for r := 0; r < rounds; r++ {
		if err := orig.e.step(r); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := orig.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(&buf, build())
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()

	w := stateWalk{seen: map[[2]uintptr]bool{}, allowed: map[string]bool{}}
	w.compare("engine", reflect.ValueOf(orig.e).Elem(), reflect.ValueOf(resumed.e).Elem())
	for _, d := range w.diffs {
		t.Errorf("not restored: %s", d)
	}
	var stale []string
	for key := range checkpointScratch {
		if !w.allowed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("checkpointScratch names %s, which the walk never reached", key)
	}
}

// stateWalk compares two values field by field, recording every
// difference by path. Identical pointers (the shared graph, broker and
// config inputs) are equal without a walk; slices compare by length
// and elements, so nil and empty are alike; floats compare by bits.
type stateWalk struct {
	seen    map[[2]uintptr]bool
	allowed map[string]bool
	diffs   []string
}

func (w *stateWalk) diff(path string, format string, a ...any) {
	w.diffs = append(w.diffs, path+": "+fmt.Sprintf(format, a...))
}

func (w *stateWalk) compare(path string, a, b reflect.Value) {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.diff(path, "nil %v against nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if key[0] == key[1] || w.seen[key] {
			return
		}
		w.seen[key] = true
		w.compare(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				w.diff(path, "nil %v against nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		if a.Elem().Type() != b.Elem().Type() {
			w.diff(path, "type %v against %v", a.Elem().Type(), b.Elem().Type())
			return
		}
		w.compare(path, a.Elem(), b.Elem())
	case reflect.Struct:
		t := a.Type()
		for i := 0; i < t.NumField(); i++ {
			key := t.Name() + "." + t.Field(i).Name
			if _, ok := checkpointScratch[key]; ok {
				w.allowed[key] = true
				continue
			}
			w.compare(path+"."+t.Field(i).Name, a.Field(i), b.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			w.diff(path, "length %d against %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			w.compare(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			w.diff(path, "%d entries against %d", a.Len(), b.Len())
			return
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				w.diff(path, "key %v missing", iter.Key())
				continue
			}
			w.compare(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value(), bv)
		}
	case reflect.Func, reflect.Chan:
		if a.IsNil() != b.IsNil() {
			w.diff(path, "nil %v against nil %v", a.IsNil(), b.IsNil())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			w.diff(path, "%v against %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			w.diff(path, "%d against %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			w.diff(path, "%d against %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			w.diff(path, "%v against %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			w.diff(path, "%q against %q", a.String(), b.String())
		}
	default:
		w.diff(path, "kind %v has no comparison", a.Kind())
	}
}
