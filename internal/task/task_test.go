package task

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewSetAggregates(t *testing.T) {
	s := NewSet([]float64{1, 50, 2, 1})
	if s.M() != 4 || s.W() != 54 || s.WMax() != 50 || s.wmin != 1 {
		t.Fatalf("aggregates wrong: m=%d W=%v max=%v min=%v", s.M(), s.W(), s.WMax(), s.wmin)
	}
	if avg := s.W() / float64(s.Live()); avg != 13.5 {
		t.Fatalf("avg=%v", avg)
	}
	if s.Task(1).ID != 1 || s.Task(1).Weight != 50 {
		t.Fatalf("task(1)=%+v", s.Task(1))
	}
	if s.Weight(2) != 2 {
		t.Fatalf("Weight(2)=%v", s.Weight(2))
	}
}

func TestNewSetRejectsBadWeights(t *testing.T) {
	for _, ws := range [][]float64{
		nil,
		{},
		{0.5},
		{1, math.NaN()},
		{1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("weights %v should panic", ws)
				}
			}()
			NewSet(ws)
		}()
	}
}

func TestUniformDistribution(t *testing.T) {
	r := rng.NewSeeded(1)
	ws := Uniform{W: 3}.Weights(5, r)
	for _, w := range ws {
		if w != 3 {
			t.Fatalf("weights=%v", ws)
		}
	}
}

func TestTwoPoint(t *testing.T) {
	r := rng.NewSeeded(2)
	ws := TwoPoint{Heavy: 50, K: 3}.Weights(10, r)
	heavy, unit := 0, 0
	for _, w := range ws {
		switch w {
		case 50:
			heavy++
		case 1:
			unit++
		default:
			t.Fatalf("unexpected weight %v", w)
		}
	}
	if heavy != 3 || unit != 7 {
		t.Fatalf("heavy=%d unit=%d", heavy, unit)
	}
	// Figure 1 bookkeeping: W = m(W,k) + k·wmax.
	s := NewSet(ws)
	if s.W() != 7+3*50 {
		t.Fatalf("W=%v", s.W())
	}
}

func TestTwoPointAllHeavy(t *testing.T) {
	r := rng.NewSeeded(3)
	ws := TwoPoint{Heavy: 8, K: 99}.Weights(4, r)
	for _, w := range ws {
		if w != 8 {
			t.Fatalf("weights=%v", ws)
		}
	}
}

func TestUniformRangeBounds(t *testing.T) {
	r := rng.NewSeeded(4)
	ws := UniformRange{Lo: 2, Hi: 7}.Weights(10000, r)
	for _, w := range ws {
		if w < 2 || w > 7 {
			t.Fatalf("weight %v outside [2,7]", w)
		}
	}
	s := NewSet(ws)
	if avg := s.W() / float64(s.Live()); math.Abs(avg-4.5) > 0.1 {
		t.Fatalf("mean=%v want 4.5", avg)
	}
}

func TestExponentialMeanAndSupport(t *testing.T) {
	r := rng.NewSeeded(5)
	ws := Exponential{Mean: 5}.Weights(100000, r)
	sum := 0.0
	for _, w := range ws {
		if w < 1 {
			t.Fatalf("weight %v below 1", w)
		}
		sum += w
	}
	if mean := sum / float64(len(ws)); math.Abs(mean-5) > 0.1 {
		t.Fatalf("mean=%v want 5", mean)
	}
}

func TestParetoSupportAndCap(t *testing.T) {
	r := rng.NewSeeded(6)
	ws := Pareto{Alpha: 1.5, Cap: 100}.Weights(50000, r)
	for _, w := range ws {
		if w < 1 || w > 100 {
			t.Fatalf("weight %v outside [1,100]", w)
		}
	}
}

func TestZipfWeightsSupport(t *testing.T) {
	r := rng.NewSeeded(7)
	ws := ZipfWeights{MaxW: 16, S: 1.1}.Weights(20000, r)
	counts := map[float64]int{}
	for _, w := range ws {
		if w < 1 || w > 16 || w != math.Trunc(w) {
			t.Fatalf("weight %v not an integer in [1,16]", w)
		}
		counts[w]++
	}
	if counts[1] <= counts[2] {
		t.Fatal("Zipf should favour weight 1")
	}
}

func TestSingleSourcePlacement(t *testing.T) {
	r := rng.NewSeeded(8)
	s := NewSet([]float64{1, 1, 1})
	p := SingleSource{Resource: 2}.Assign(s, 5, r)
	for _, res := range p {
		if res != 2 {
			t.Fatalf("placement=%v", p)
		}
	}
}

func TestSingleSourceOutOfRange(t *testing.T) {
	r := rng.NewSeeded(9)
	s := NewSet([]float64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SingleSource{Resource: 5}.Assign(s, 3, r)
}

func TestRandomPlacementCoverage(t *testing.T) {
	r := rng.NewSeeded(10)
	s := NewSet(Uniform{W: 1}.Weights(10000, r))
	p := RandomPlacement{}.Assign(s, 10, r)
	counts := make([]int, 10)
	for _, res := range p {
		if res < 0 || res >= 10 {
			t.Fatalf("resource %d out of range", res)
		}
		counts[res]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("resource %d got %d/10000 tasks (not uniform)", i, c)
		}
	}
}

func TestBlockPlacement(t *testing.T) {
	r := rng.NewSeeded(11)
	s := NewSet([]float64{1, 1, 1, 1, 1})
	p := BlockPlacement{K: 2}.Assign(s, 10, r)
	want := []int{0, 1, 0, 1, 0}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("block placement=%v want %v", p, want)
		}
	}
}

// Property: ProperPlacement never exceeds W/n + wmax on any resource.
func TestProperPlacementInvariant(t *testing.T) {
	r := rng.NewSeeded(12)
	f := func(seed uint16) bool {
		m := 20 + int(seed%200)
		n := 2 + int(seed%17)
		ws := Pareto{Alpha: 1.2, Cap: 40}.Weights(m, r)
		s := NewSet(ws)
		assign := ProperPlacement{}.Assign(s, n, r)
		load := make([]float64, n)
		for id, res := range assign {
			if res < 0 || res >= n {
				return false
			}
			load[res] += s.Weight(id)
		}
		bound := s.W()/float64(n) + s.WMax() + 1e-9
		for _, l := range load {
			if l > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestProperPlacementTight(t *testing.T) {
	// m = n unit tasks: proper placement must not stack everything on
	// one resource even though the per-resource cap (1 + 1·n/n = 2)
	// would allow pairs.
	r := rng.NewSeeded(13)
	s := NewSet(Uniform{W: 1}.Weights(8, r))
	assign := ProperPlacement{}.Assign(s, 4, r)
	load := make([]float64, 4)
	for id, res := range assign {
		load[res] += s.Weight(id)
	}
	for _, l := range load {
		if l > 1+8.0/4.0+1e-9 {
			t.Fatalf("load %v exceeds W/n + wmax", l)
		}
	}
}

func TestDistributionNames(t *testing.T) {
	// Names feed report tables; just pin they are non-empty and distinct.
	names := map[string]bool{}
	for _, d := range []Distribution{
		Uniform{W: 1}, TwoPoint{Heavy: 50, K: 3}, UniformRange{Lo: 1, Hi: 2},
		Exponential{Mean: 4}, Pareto{Alpha: 2, Cap: 0}, ZipfWeights{MaxW: 8, S: 1},
	} {
		n := d.Name()
		if n == "" || names[n] {
			t.Fatalf("bad or duplicate name %q", n)
		}
		names[n] = true
	}
}

func TestSortByWeightDesc(t *testing.T) {
	r := rng.NewSeeded(14)
	ws := UniformRange{Lo: 1, Hi: 100}.Weights(500, r)
	s := NewSet(ws)
	order := make([]int, s.M())
	for i := range order {
		order[i] = i
	}
	sortByWeightDesc(order, s)
	for i := 1; i < len(order); i++ {
		if s.Weight(order[i-1]) < s.Weight(order[i]) {
			t.Fatalf("order not descending at %d: %v < %v", i, s.Weight(order[i-1]), s.Weight(order[i]))
		}
	}
	// Must still be a permutation.
	seen := make([]bool, len(order))
	for _, id := range order {
		if seen[id] {
			t.Fatal("duplicate in order")
		}
		seen[id] = true
	}
}

func TestDynamicSetAddRemove(t *testing.T) {
	s := NewEmptySet()
	if s.M() != 0 || s.Live() != 0 || s.W() != 0 || s.WMax() != 0 {
		t.Fatalf("empty set aggregates: m=%d live=%d W=%v", s.M(), s.Live(), s.W())
	}
	a := s.Add(3)
	b := s.Add(7)
	if a.ID != 0 || b.ID != 1 || s.Live() != 2 || s.W() != 10 || s.WMax() != 7 || s.wmin != 3 {
		t.Fatalf("after adds: %+v %+v live=%d W=%v max=%v min=%v", a, b, s.Live(), s.W(), s.WMax(), s.wmin)
	}
	s.Remove(a.ID)
	if s.Live() != 1 || s.W() != 7 || !s.Removed(a.ID) || s.Removed(b.ID) {
		t.Fatalf("after remove: live=%d W=%v", s.Live(), s.W())
	}
	// Watermarks never shrink: thresholds computed from them stay valid.
	if s.WMax() != 7 || s.wmin != 3 {
		t.Fatalf("watermarks moved: max=%v min=%v", s.WMax(), s.wmin)
	}
	// Tombstoned IDs are recycled LIFO, so ID-indexed arrays stay
	// proportional to the in-flight population.
	c := s.Add(2)
	if c.ID != a.ID || s.M() != 2 || s.Live() != 2 || s.W() != 9 || s.Removed(c.ID) {
		t.Fatalf("post-tombstone add: %+v m=%d live=%d W=%v", c, s.M(), s.Live(), s.W())
	}
	if avg := s.W() / float64(s.Live()); avg != 4.5 {
		t.Fatalf("live average %v want 4.5", avg)
	}
	// The ID space only extends once the free list is drained.
	d := s.Add(5)
	if d.ID != 2 || s.M() != 3 || s.Live() != 3 || s.W() != 14 {
		t.Fatalf("free-list drained add: %+v m=%d live=%d W=%v", d, s.M(), s.Live(), s.W())
	}
	// Interleaved churn: removals feed later adds in LIFO order.
	s.Remove(b.ID)
	s.Remove(d.ID)
	e := s.Add(1)
	f := s.Add(1)
	if e.ID != d.ID || f.ID != b.ID || s.M() != 3 || s.Live() != 3 {
		t.Fatalf("LIFO recycling: e=%+v f=%+v m=%d live=%d", e, f, s.M(), s.Live())
	}
}

func TestDynamicSetPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	s := NewEmptySet()
	expectPanic("Add(0.5)", func() { s.Add(0.5) })
	id := s.Add(2).ID
	s.Remove(id)
	expectPanic("double Remove", func() { s.Remove(id) })
	expectPanic("Remove unknown", func() { s.Remove(99) })
}

func TestStaticSetUnaffectedByDynamicAPI(t *testing.T) {
	s := NewSet([]float64{1, 2, 3})
	if s.Live() != 3 || s.Removed(1) {
		t.Fatalf("static set dynamic view: live=%d", s.Live())
	}
}

// TestSetShrinkOnDrain pins the long-trace compaction: after a burst
// whose peak in-flight population dwarfs the survivors, draining the
// set must shrink the ID space and actually release the backing
// capacity, while keeping the live tasks, the watermarks, and the
// accounting intact.
func TestSetShrinkOnDrain(t *testing.T) {
	s := NewEmptySet()
	const burst = 8192
	for i := 0; i < burst; i++ {
		s.Add(1 + float64(i%7))
	}
	peakCap := cap(s.Tasks())
	// Drain the burst top-down, keeping the bottom 100 IDs live.
	for id := burst - 1; id >= 100; id-- {
		s.Remove(id)
	}
	if s.Live() != 100 {
		t.Fatalf("live %d after drain", s.Live())
	}
	if s.M() >= burst/4 {
		t.Fatalf("ID space %d did not shrink (peak %d)", s.M(), burst)
	}
	if got := cap(s.Tasks()); got >= peakCap {
		t.Fatalf("capacity %d not released (peak %d)", got, peakCap)
	}
	// Survivors and accounting intact.
	want := 0.0
	for id := 0; id < 100; id++ {
		if s.Removed(id) {
			t.Fatalf("live task %d marked removed", id)
		}
		want += 1 + float64(id%7)
	}
	if s.W() != want {
		t.Fatalf("W %v after shrink, want %v", s.W(), want)
	}
	// The shrunk set keeps working: Adds extend the compact ID space.
	tk := s.Add(3)
	if tk.ID < 0 || tk.ID > s.M() {
		t.Fatalf("post-shrink Add gave ID %d with M %d", tk.ID, s.M())
	}
}

// TestSetShrinkPinnedByLiveTail checks the safety property: a live
// task at the top of the ID space pins everything below it — shrink
// must never renumber or drop live IDs, only truncate an all-removed
// tail.
func TestSetShrinkPinnedByLiveTail(t *testing.T) {
	s := NewEmptySet()
	const n = 4096
	for i := 0; i < n; i++ {
		s.Add(2)
	}
	// Remove everything except the topmost ID: the tail is live, so the
	// ID space must stay at n even though live*4 <= M.
	for id := 0; id < n-1; id++ {
		s.Remove(id)
	}
	if s.M() != n || s.Live() != 1 || s.Removed(n-1) {
		t.Fatalf("pinned set: m=%d live=%d", s.M(), s.Live())
	}
	// Removing the pin clears the whole tail in one compaction.
	s.Remove(n - 1)
	if s.M() != 0 || s.Live() != 0 {
		t.Fatalf("fully drained set: m=%d live=%d", s.M(), s.Live())
	}
	if tk := s.Add(5); tk.ID != 0 {
		t.Fatalf("post-drain Add gave ID %d, want 0", tk.ID)
	}
}

// TestSetShrinkDeterministicIDs pins that compaction keeps ID
// assignment a pure function of the operation sequence: two sets fed
// the same Adds/Removes hand out identical IDs through a shrink.
func TestSetShrinkDeterministicIDs(t *testing.T) {
	runOps := func() []int {
		s := NewEmptySet()
		var ids []int
		for i := 0; i < 3000; i++ {
			s.Add(1)
		}
		for id := 2999; id >= 50; id-- {
			s.Remove(id)
		}
		for i := 0; i < 200; i++ {
			ids = append(ids, s.Add(1).ID)
		}
		return ids
	}
	a, b := runOps(), runOps()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("ID assignment diverged across identical op sequences:\n%v\nvs\n%v", a, b)
	}
}

// TestPropertyFreeListNeverDoubleIssues drives long random Add/Remove
// sequences — including drain phases that trigger shrink compaction —
// against an oracle model, asserting the free-list contract: Add never
// returns an ID that is currently live, Remove retires exactly the
// requested live ID, and the Live/W aggregates always match the model.
// A double-issued ID would corrupt every ID-indexed structure in the
// open-system engine (locations, remaining-work, stacks), so this is
// the task layer's load-bearing property.
func TestPropertyFreeListNeverDoubleIssues(t *testing.T) {
	r := rng.NewSeeded(0xf4ee)
	for trial := 0; trial < 6; trial++ {
		s := NewEmptySet()
		live := map[int]float64{} // oracle: ID → weight
		var liveIDs []int         // for uniform removal picks
		wantW := 0.0
		ops := 4000 + r.Intn(4000)
		for op := 0; op < ops; op++ {
			// Phase-dependent add probability: grow, then drain hard so
			// shrink fires, then churn around the boundary.
			pAdd := 0.7
			switch {
			case op > ops/2 && op < 3*ops/4:
				pAdd = 0.05 // drain phase
			case op >= 3*ops/4:
				pAdd = 0.5
			}
			if len(liveIDs) == 0 || r.Bool(pAdd) {
				w := 1 + 9*r.Float64()
				tk := s.Add(w)
				if _, ok := live[tk.ID]; ok {
					t.Fatalf("trial %d op %d: Add double-issued live ID %d", trial, op, tk.ID)
				}
				if tk.Weight != w {
					t.Fatalf("trial %d op %d: Add returned weight %v, want %v", trial, op, tk.Weight, w)
				}
				live[tk.ID] = w
				liveIDs = append(liveIDs, tk.ID)
				wantW += w
			} else {
				i := r.Intn(len(liveIDs))
				id := liveIDs[i]
				liveIDs[i] = liveIDs[len(liveIDs)-1]
				liveIDs = liveIDs[:len(liveIDs)-1]
				if s.Removed(id) {
					t.Fatalf("trial %d op %d: model thinks %d is live, set says removed", trial, op, id)
				}
				wantW -= live[id]
				delete(live, id)
				s.Remove(id)
				// Retired means flagged removed — or gone entirely when
				// the removal triggered shrink and the ID sat in the
				// truncated all-removed tail.
				if !s.Removed(id) && id < s.M() {
					t.Fatalf("trial %d op %d: Remove(%d) did not retire the ID", trial, op, id)
				}
			}
			if s.Live() != len(live) {
				t.Fatalf("trial %d op %d: Live() = %d, model has %d", trial, op, s.Live(), len(live))
			}
			if math.Abs(s.W()-wantW) > 1e-6*(1+wantW) {
				t.Fatalf("trial %d op %d: W() = %v, model %v", trial, op, s.W(), wantW)
			}
		}
		// Every live ID must still resolve to its model weight, and no
		// removed ID may report live — across every compaction that
		// happened along the way.
		for id, w := range live {
			if s.Removed(id) || s.Weight(id) != w {
				t.Fatalf("trial %d: live task %d lost or mutated (removed=%v w=%v want %v)",
					trial, id, s.Removed(id), s.Weight(id), w)
			}
		}
		for id := 0; id < s.M(); id++ {
			if _, ok := live[id]; !ok && !s.Removed(id) {
				t.Fatalf("trial %d: ID %d reports live but the model removed it", trial, id)
			}
		}
	}
}
