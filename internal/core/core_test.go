package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/task"
	"repro/internal/walk"
)

func unitTasks(m int) *task.Set {
	ws := make([]float64, m)
	for i := range ws {
		ws[i] = 1
	}
	return task.NewSet(ws)
}

func singleSource(m int) []int { return make([]int, m) }

func TestThresholdPolicies(t *testing.T) {
	ts := task.NewSet([]float64{1, 1, 1, 50}) // W=53, wmax=50
	n := 4
	cases := []struct {
		p    Thresholds
		want float64
	}{
		{AboveAverage{Eps: 0.2}, 1.2*53.0/4 + 50},
		{TightResource{}, 53.0/4 + 100},
		{TightUser{}, 53.0/4 + 50},
	}
	for _, c := range cases {
		v := c.p.Values(ts, n)
		if len(v) != n {
			t.Fatalf("%s: length %d", c.p.Name(), len(v))
		}
		for _, x := range v {
			if math.Abs(x-c.want) > 1e-12 {
				t.Fatalf("%s: threshold %v want %v", c.p.Name(), x, c.want)
			}
		}
	}
}

func TestAboveAveragePanicsOnZeroEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AboveAverage{Eps: 0}.Values(unitTasks(4), 2)
}

func TestFixedVectorAndNonUniform(t *testing.T) {
	ts := unitTasks(4)
	fv := FixedVector{V: []float64{3, 4}, Label: "ext"}
	v := fv.Values(ts, 2)
	if v[0] != 3 || v[1] != 4 {
		t.Fatalf("fixed=%v", v)
	}
	nu := NonUniform{Base: fv, Slack: []float64{0, 2}}
	v2 := nu.Values(ts, 2)
	if v2[0] != 3 || v2[1] != 6 {
		t.Fatalf("nonuniform=%v", v2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative slack should panic")
		}
	}()
	NonUniform{Base: fv, Slack: []float64{-1, 0}}.Values(ts, 2)
}

func TestFromEstimates(t *testing.T) {
	fv := FromEstimates([]float64{10, 20}, 0.5, 3)
	v := fv.Values(unitTasks(2), 2)
	if v[0] != 18 || v[1] != 33 {
		t.Fatalf("estimates=%v", v)
	}
}

func TestNewStateAndInvariants(t *testing.T) {
	g := graph.Complete(5)
	ts := task.NewSet([]float64{2, 3, 4})
	s := NewState(g, ts, []int{0, 0, 4}, AboveAverage{Eps: 0.5}, 1)
	if s.N() != 5 || s.Load(0) != 5 || s.Load(4) != 4 || s.Count(0) != 2 {
		t.Fatal("initial placement wrong")
	}
	if s.Location(2) != 4 {
		t.Fatal("location map wrong")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewStatePanics(t *testing.T) {
	g := graph.Complete(3)
	ts := unitTasks(2)
	for name, f := range map[string]func(){
		"short placement": func() { NewState(g, ts, []int{0}, TightUser{}, 1) },
		"bad resource":    func() { NewState(g, ts, []int{0, 7}, TightUser{}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPotentialAndActive(t *testing.T) {
	g := graph.Complete(2)
	ts := task.NewSet([]float64{1, 1, 1, 1}) // W=4, n=2
	// Tight-user threshold: 4/2 + 1 = 3. All four on resource 0:
	// heights 0,1,2,3 → task3 above? h=3 ≥ 3 → above. task2: h=2,w=1 →
	// 3 ≤ 3 below. So overflow = 1 task, weight 1.
	s := NewState(g, ts, singleSource(4), TightUser{}, 1)
	if got := s.Potential(); got != 1 {
		t.Fatalf("potential=%v want 1", got)
	}
	if got := s.Stack(0).OverflowCount(s.Threshold(0)) + s.Stack(1).OverflowCount(s.Threshold(1)); got != 1 {
		t.Fatalf("active=%d want 1", got)
	}
	if s.Balanced() {
		t.Fatal("should be overloaded")
	}
	if got := s.OverloadedCount(); got != 1 {
		t.Fatalf("overloaded=%d", got)
	}
	if got := s.MaxLoad(); got != 4 {
		t.Fatalf("maxload=%v", got)
	}
}

func TestResourceControlledBalancesCompleteGraph(t *testing.T) {
	g := graph.Complete(20)
	ts := unitTasks(200)
	s := NewState(g, ts, singleSource(200), AboveAverage{Eps: 0.2}, 42)
	p := ResourceControlled{Kernel: walk.NewMaxDegree(g)}
	res := Run(s, p, RunOptions{MaxRounds: 10000, CheckInvariants: true})
	if !res.Balanced {
		t.Fatalf("did not balance in %d rounds", res.Rounds)
	}
	if res.Rounds == 0 || res.Migrations == 0 {
		t.Fatal("suspiciously trivial run")
	}
	for r := 0; r < s.N(); r++ {
		if s.Load(r) > s.Threshold(r) {
			t.Fatalf("resource %d overloaded after balance: %v > %v", r, s.Load(r), s.Threshold(r))
		}
	}
}

func TestResourceControlledBalancesWeightedOnGrid(t *testing.T) {
	g := graph.Grid2D(5, 5, true)
	r := rng.NewSeeded(7)
	ws := task.Pareto{Alpha: 1.5, Cap: 20}.Weights(100, r)
	ts := task.NewSet(ws)
	s := NewState(g, ts, singleSource(100), AboveAverage{Eps: 0.5}, 43)
	p := ResourceControlled{Kernel: walk.NewMaxDegree(g)}
	res := Run(s, p, RunOptions{MaxRounds: 50000, CheckInvariants: true})
	if !res.Balanced {
		t.Fatalf("weighted grid run did not balance in %d rounds", res.Rounds)
	}
}

func TestResourceControlledTightThresholdBalances(t *testing.T) {
	g := graph.Grid2D(4, 4, false)
	ts := unitTasks(64)
	s := NewState(g, ts, singleSource(64), TightResource{}, 44)
	p := ResourceControlled{Kernel: walk.NewMaxDegree(g)}
	res := Run(s, p, RunOptions{MaxRounds: 200000})
	if !res.Balanced {
		t.Fatalf("tight run did not balance in %d rounds", res.Rounds)
	}
}

func TestObservation4PotentialNonIncreasingResourceTight(t *testing.T) {
	g := graph.Grid2D(4, 4, true)
	r := rng.NewSeeded(9)
	ts := task.NewSet(task.UniformRange{Lo: 1, Hi: 8}.Weights(80, r))
	s := NewState(g, ts, singleSource(80), TightResource{}, 45)
	p := ResourceControlled{Kernel: walk.NewMaxDegree(g)}
	res := Run(s, p, RunOptions{MaxRounds: 100000, RecordPotential: true})
	if !res.Balanced {
		t.Fatalf("did not balance")
	}
	for i := 1; i < len(res.PotentialTrace); i++ {
		if res.PotentialTrace[i] > res.PotentialTrace[i-1]+1e-9 {
			t.Fatalf("potential increased at round %d: %v -> %v",
				i, res.PotentialTrace[i-1], res.PotentialTrace[i])
		}
	}
	if last := res.PotentialTrace[len(res.PotentialTrace)-1]; last != 0 {
		t.Fatalf("final potential %v != 0", last)
	}
}

func TestLemma1AcceptFraction(t *testing.T) {
	// Lemma 1: with T = (1+ε)W/n + wmax, at any time at least an
	// ε/(1+ε) fraction of resources can accept a task of weight wmax.
	const eps = 0.2
	g := graph.Complete(50)
	ts := unitTasks(500)
	s := NewState(g, ts, singleSource(500), AboveAverage{Eps: eps}, 46)
	p := UserControlled{Alpha: 1}
	bound := eps / (1 + eps)
	for i := 0; i < 200 && !s.Balanced(); i++ {
		if f := s.AcceptFraction(); f < bound-1e-12 {
			t.Fatalf("round %d: accept fraction %v below ε/(1+ε)=%v", i, f, bound)
		}
		s.Step(p)
	}
}

func TestUserControlledBalancesCompleteGraph(t *testing.T) {
	g := graph.Complete(100)
	ts := unitTasks(1000)
	s := NewState(g, ts, singleSource(1000), AboveAverage{Eps: 0.2}, 47)
	p := UserControlled{Alpha: 1}
	res := Run(s, p, RunOptions{MaxRounds: 10000, CheckInvariants: true})
	if !res.Balanced {
		t.Fatalf("user-controlled did not balance in %d rounds", res.Rounds)
	}
}

func TestUserControlledWeightedBalances(t *testing.T) {
	g := graph.Complete(50)
	r := rng.NewSeeded(11)
	ws := task.TwoPoint{Heavy: 50, K: 5}.Weights(500, r)
	ts := task.NewSet(ws)
	s := NewState(g, ts, singleSource(500), AboveAverage{Eps: 0.2}, 48)
	res := Run(s, UserControlled{Alpha: 1}, RunOptions{MaxRounds: 50000})
	if !res.Balanced {
		t.Fatalf("weighted user run did not balance in %d rounds", res.Rounds)
	}
}

func TestUserControlledTightThreshold(t *testing.T) {
	g := graph.Complete(10)
	ts := unitTasks(50)
	s := NewState(g, ts, singleSource(50), TightUser{}, 49)
	res := Run(s, UserControlled{Alpha: 1}, RunOptions{MaxRounds: 200000})
	if !res.Balanced {
		t.Fatalf("tight user run did not balance in %d rounds", res.Rounds)
	}
}

func TestUserControlledLeaveProbabilityCapped(t *testing.T) {
	g := graph.Complete(3)
	ts := task.NewSet([]float64{5, 5, 5, 5})
	s := NewState(g, ts, singleSource(4), TightUser{}, 50)
	p := UserControlled{Alpha: 100}
	if got := p.leaveProbability(s, 0); got != 1 {
		t.Fatalf("probability %v should cap at 1", got)
	}
	if got := p.leaveProbability(s, 1); got != 0 {
		t.Fatalf("empty resource leave probability %v", got)
	}
}

func TestTheoryAlphas(t *testing.T) {
	if got := TheoryAlphaAboveAverage(0.2); math.Abs(got-0.2/144) > 1e-15 {
		t.Fatalf("alpha=%v", got)
	}
}

func TestUserControlledGraphOnCycle(t *testing.T) {
	g := graph.Cycle(10)
	ts := unitTasks(100)
	s := NewState(g, ts, singleSource(100), AboveAverage{Eps: 0.5}, 51)
	res := Run(s, UserControlledGraph{Alpha: 1}, RunOptions{MaxRounds: 100000, CheckInvariants: true})
	if !res.Balanced {
		t.Fatalf("graph user protocol did not balance in %d rounds", res.Rounds)
	}
}

func TestMixedProtocol(t *testing.T) {
	g := graph.Complete(20)
	ts := unitTasks(200)
	s := NewState(g, ts, singleSource(200), AboveAverage{Eps: 0.2}, 52)
	p := Mixed{
		A:      ResourceControlled{Kernel: walk.NewMaxDegree(g)},
		B:      UserControlled{Alpha: 1},
		Period: 2,
	}
	res := Run(s, p, RunOptions{MaxRounds: 20000, CheckInvariants: true})
	if !res.Balanced {
		t.Fatalf("mixed protocol did not balance in %d rounds", res.Rounds)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	mk := func() RunResult {
		g := graph.Grid2D(4, 5, false)
		ts := unitTasks(100)
		s := NewState(g, ts, singleSource(100), AboveAverage{Eps: 0.3}, 777)
		return Run(s, ResourceControlled{Kernel: walk.NewMaxDegree(g)}, RunOptions{MaxRounds: 50000})
	}
	a, b := mk(), mk()
	if a.Rounds != b.Rounds || a.Migrations != b.Migrations || a.MovedWeight != b.MovedWeight {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunAlreadyBalanced(t *testing.T) {
	g := graph.Complete(10)
	ts := unitTasks(10)
	placement := make([]int, 10)
	for i := range placement {
		placement[i] = i
	}
	s := NewState(g, ts, placement, AboveAverage{Eps: 1}, 53)
	res := Run(s, UserControlled{Alpha: 1}, RunOptions{})
	if !res.Balanced || res.Rounds != 0 || res.Migrations != 0 {
		t.Fatalf("balanced start should terminate immediately: %+v", res)
	}
}

func TestRunHitsCapUnbalanced(t *testing.T) {
	// An impossible fixed threshold (below W/n) can never balance; the
	// runner must stop at MaxRounds and report Balanced=false.
	g := graph.Complete(4)
	ts := unitTasks(40)
	thr := FixedVector{V: []float64{1, 1, 1, 1}, Label: "impossible"}
	s := NewState(g, ts, singleSource(40), thr, 54)
	res := Run(s, UserControlled{Alpha: 0.5}, RunOptions{MaxRounds: 50})
	if res.Balanced || res.Rounds != 50 {
		t.Fatalf("expected capped unbalanced run, got %+v", res)
	}
}

func TestPotentialTraceRecording(t *testing.T) {
	g := graph.Complete(10)
	ts := unitTasks(100)
	s := NewState(g, ts, singleSource(100), AboveAverage{Eps: 0.2}, 55)
	res := Run(s, UserControlled{Alpha: 1}, RunOptions{MaxRounds: 10000, RecordPotential: true, RecordMaxLoad: true})
	if len(res.PotentialTrace) != res.Rounds+1 || len(res.MaxLoadTrace) != res.Rounds+1 {
		t.Fatalf("trace lengths %d/%d for %d rounds",
			len(res.PotentialTrace), len(res.MaxLoadTrace), res.Rounds)
	}
	if res.PotentialTrace[0] == 0 {
		t.Fatal("initial potential should be positive")
	}
	if res.PotentialTrace[res.Rounds] != 0 {
		t.Fatal("final potential should be zero when balanced")
	}
}

func TestAcceptedTasksNeverMoveAgain(t *testing.T) {
	// Once a task is fully below the threshold on a resource under the
	// resource-controlled protocol it must stay there forever.
	g := graph.Grid2D(3, 3, false)
	ts := unitTasks(30)
	s := NewState(g, ts, singleSource(30), AboveAverage{Eps: 0.4}, 56)
	p := ResourceControlled{Kernel: walk.NewMaxDegree(g)}
	type acceptance struct {
		res   int
		round int
	}
	accepted := map[int]acceptance{}
	for round := 0; round < 100000 && !s.Balanced(); round++ {
		// Record acceptances.
		for r := 0; r < s.N(); r++ {
			below, _ := s.Stack(r).Partition(s.Threshold(r))
			for i := 0; i < below; i++ {
				id := s.Stack(r).Task(i).ID
				if a, ok := accepted[id]; ok && a.res != r {
					t.Fatalf("task %d accepted on %d (round %d) moved to %d (round %d)",
						id, a.res, a.round, r, round)
				} else if !ok {
					accepted[id] = acceptance{res: r, round: round}
				}
			}
		}
		s.Step(p)
	}
	if !s.Balanced() {
		t.Fatal("did not balance")
	}
}

// sortRef is the reference ordering sortMigrations must reproduce:
// sort.Slice on the (dest, task ID) key. The key is unique per move
// within a round (a task migrates at most once), so the reference
// order is total and any correct sort must match it exactly.
func sortRef(moves []Migration) []Migration {
	ref := append([]Migration(nil), moves...)
	sort.Slice(ref, func(i, j int) bool { return migrationLess(ref[i], ref[j]) })
	return ref
}

func checkAgainstRef(t *testing.T, label string, moves []Migration) {
	t.Helper()
	ref := sortRef(moves)
	got := append([]Migration(nil), moves...)
	buf := make([]Migration, len(got))
	sortMigrations(got, buf)
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: sortMigrations order diverges from sort.Slice reference\ngot  %v\nwant %v",
			label, got, ref)
	}
}

func TestMigrationSortDeterminism(t *testing.T) {
	moves := []Migration{
		{Task: task.Task{ID: 5}, Dest: 2},
		{Task: task.Task{ID: 1}, Dest: 2},
		{Task: task.Task{ID: 9}, Dest: 0},
		{Task: task.Task{ID: 3}, Dest: 1},
	}
	sortMigrations(moves, make([]Migration, len(moves)))
	wantIDs := []int{9, 3, 1, 5}
	for i, mv := range moves {
		if mv.Task.ID != wantIDs[i] {
			t.Fatalf("sorted order %v", moves)
		}
	}
}

// TestMigrationSortLargeMergePath drives the radix path (batches of
// radixCutoff moves and more) and the insertion sort just below it
// against adversarial input shapes and checks every result against the
// sort.Slice reference order.
func TestMigrationSortLargeMergePath(t *testing.T) {
	r := rng.NewSeeded(14)
	mk := func(n int, dest func(i int) int32, id func(i int) int) []Migration {
		ms := make([]Migration, n)
		for i := range ms {
			ms[i] = Migration{Task: task.Task{ID: id(i)}, Dest: dest(i)}
		}
		return ms
	}
	// Boundary sizes around the insertion-sort/radix cutoff, and
	// powers of two ± 1.
	for _, n := range []int{31, 32, 33, 63, 64, 65, 127, 128, 500, 1024, 1025} {
		sorted := mk(n, func(i int) int32 { return int32(i / 4) }, func(i int) int { return i })
		checkAgainstRef(t, fmt.Sprintf("n=%d already-sorted", n), sorted)

		rev := mk(n, func(i int) int32 { return int32((n - i) / 4) }, func(i int) int { return n - i })
		checkAgainstRef(t, fmt.Sprintf("n=%d reversed", n), rev)

		same := mk(n, func(i int) int32 { return 3 }, func(i int) int { return n - i })
		checkAgainstRef(t, fmt.Sprintf("n=%d single-dest", n), same)

		sawtooth := mk(n, func(i int) int32 { return int32(i % 5) }, func(i int) int { return i })
		checkAgainstRef(t, fmt.Sprintf("n=%d sawtooth", n), sawtooth)

		random := mk(n, func(i int) int32 { return int32(r.Intn(7)) }, func(i int) int { return i })
		for i := len(random) - 1; i > 0; i-- { // Fisher–Yates
			j := r.Intn(i + 1)
			random[i], random[j] = random[j], random[i]
		}
		checkAgainstRef(t, fmt.Sprintf("n=%d random", n), random)
	}
}

// TestDeliverMigrationsShardOrderInvariant pins the engine's
// cross-shard merge contract on the sequential delivery reference: it
// must produce identical stacks, locations and stats — MovedWeight's
// float rounding included — no matter how the move set was partitioned
// and concatenated by shards.
func TestDeliverMigrationsShardOrderInvariant(t *testing.T) {
	build := func() (*State, []Migration) {
		r := rng.NewSeeded(99)
		g := graph.Complete(16)
		ws := make([]float64, 200)
		for i := range ws {
			ws[i] = 1 + 7*r.Float64()
		}
		ts := task.NewSet(ws)
		s := NewState(g, ts, make([]int, len(ws)), AboveAverage{Eps: 0.5}, 7)
		// Pull 48 tasks off resource 0 as the round's move set, with
		// clumped destinations so several moves share a dest.
		var moves []Migration
		idx := make([]int, 48)
		for i := range idx {
			idx[i] = 2 * i
		}
		for _, tk := range s.removeForMigration(0, idx, nil) {
			moves = append(moves, Migration{Task: tk, Dest: int32(tk.ID % 5)})
		}
		return s, moves
	}

	type outcome struct {
		stats StepStats
		loads []float64
		order [][]int
	}
	capture := func(s *State, st StepStats) outcome {
		o := outcome{stats: st, loads: s.Loads()}
		for rr := 0; rr < s.N(); rr++ {
			var ids []int
			for _, tk := range s.Stack(rr).Tasks() {
				ids = append(ids, tk.ID)
			}
			o.order = append(o.order, ids)
		}
		return o
	}

	s, moves := build()
	ref := capture(s, deliverReference(s, append([]Migration(nil), moves...)))

	// Simulate different shard partitions: split the move set at every
	// possible boundary pair and concatenate the chunks in reversed
	// order — the worst-case shard arrival order.
	for _, cuts := range [][]int{{16}, {1}, {47}, {8, 31}, {3, 7, 40}} {
		s2, moves2 := build()
		var parts [][]Migration
		prev := 0
		for _, c := range append(cuts, len(moves2)) {
			parts = append(parts, moves2[prev:c])
			prev = c
		}
		var shuffled []Migration
		for i := len(parts) - 1; i >= 0; i-- {
			shuffled = append(shuffled, parts[i]...)
		}
		got := capture(s2, deliverReference(s2, shuffled))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("cuts %v: shard concatenation order leaked into the delivery:\ngot  %+v\nwant %+v", cuts, got, ref)
		}
	}
}

func TestOnRoundHook(t *testing.T) {
	g := graph.Complete(10)
	ts := unitTasks(100)
	s := NewState(g, ts, singleSource(100), AboveAverage{Eps: 0.2}, 60)
	var rounds []int
	var gaps []float64
	res := Run(s, UserControlled{Alpha: 1}, RunOptions{
		MaxRounds: 10000,
		OnRound: func(st *State, round int, stats StepStats) {
			rounds = append(rounds, round)
			loads := st.Loads()
			if len(loads) != 10 {
				t.Fatalf("loads length %d", len(loads))
			}
			gaps = append(gaps, st.MaxLoad())
		},
	})
	if !res.Balanced {
		t.Fatal("did not balance")
	}
	if len(rounds) != res.Rounds {
		t.Fatalf("hook fired %d times for %d rounds", len(rounds), res.Rounds)
	}
	for i, r := range rounds {
		if r != i+1 {
			t.Fatalf("round numbering %v", rounds)
		}
	}
	// Final max load must respect the threshold.
	if gaps[len(gaps)-1] > s.Threshold(0) {
		t.Fatalf("final max load %v above threshold %v", gaps[len(gaps)-1], s.Threshold(0))
	}
}

func TestLoadsIsACopy(t *testing.T) {
	g := graph.Complete(3)
	ts := unitTasks(3)
	s := NewState(g, ts, []int{0, 1, 2}, AboveAverage{Eps: 1}, 61)
	loads := s.Loads()
	loads[0] = 99
	if s.Load(0) == 99 {
		t.Fatal("Loads aliased internal state")
	}
}

func TestProportionalThresholds(t *testing.T) {
	ts := unitTasks(100) // W = 100
	p := Proportional{Speeds: []float64{1, 3}, Eps: 0.2}
	v := p.Values(ts, 2)
	// Shares: 25 and 75; thresholds 1.2·share + wmax(=1).
	if math.Abs(v[0]-(1.2*25+1)) > 1e-12 || math.Abs(v[1]-(1.2*75+1)) > 1e-12 {
		t.Fatalf("thresholds=%v", v)
	}
	// Capacity must exceed W so balance is reachable.
	if v[0]+v[1] <= 100 {
		t.Fatalf("insufficient capacity: %v", v)
	}
}

// TestProportionalShareInto pins the allocation-free open-system form
// of the proportional thresholds: caller-supplied W/wmax/total (so the
// vector can target the UP capacity only) written into a reused
// buffer, agreeing with Values on the static all-up case.
func TestProportionalShareInto(t *testing.T) {
	ts := unitTasks(100)
	p := Proportional{Speeds: []float64{1, 3}, Eps: 0.2}
	dst := make([]float64, 2)
	p.ShareInto(dst, ts.W(), ts.WMax(), 1+3)
	want := p.Values(ts, 2)
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("ShareInto=%v, Values=%v", dst, want)
		}
	}
	// Restricted capacity: resource 1 down leaves S_up = 1, so resource
	// 0's target is the whole (1+eps)·W plus wmax.
	p.ShareInto(dst, 100, 1, 1)
	if math.Abs(dst[0]-(1.2*100+1)) > 1e-12 {
		t.Fatalf("up-restricted share = %v", dst[0])
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.ShareInto(dst, 100, 1, 4)
	}); allocs != 0 {
		t.Fatalf("ShareInto allocates %v times per call", allocs)
	}
}

func TestProportionalPanics(t *testing.T) {
	ts := unitTasks(10)
	for name, f := range map[string]func(){
		"wrong length": func() { Proportional{Speeds: []float64{1}, Eps: 0.2}.Values(ts, 2) },
		"zero speed":   func() { Proportional{Speeds: []float64{1, 0}, Eps: 0.2}.Values(ts, 2) },
		"zero eps":     func() { Proportional{Speeds: []float64{1, 1}, Eps: 0}.Values(ts, 2) },
		"short dst":    func() { Proportional{Speeds: []float64{1, 1}, Eps: 0.2}.ShareInto(make([]float64, 1), 10, 1, 2) },
		"zero total":   func() { Proportional{Speeds: []float64{1, 1}, Eps: 0.2}.ShareInto(make([]float64, 2), 10, 1, 0) },
		"shareinto eps": func() {
			Proportional{Speeds: []float64{1, 1}}.ShareInto(make([]float64, 2), 10, 1, 2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestProportionalBalancesHeterogeneousCluster(t *testing.T) {
	// Fast resources (speed 4) should end up with ~4x the load of slow
	// ones (speed 1) once the user-controlled protocol settles.
	g := graph.Complete(20)
	ts := unitTasks(2000)
	speeds := make([]float64, 20)
	for i := range speeds {
		speeds[i] = 1
		if i < 5 {
			speeds[i] = 4
		}
	}
	s := NewState(g, ts, singleSource(2000), Proportional{Speeds: speeds, Eps: 0.2}, 62)
	res := Run(s, UserControlled{Alpha: 1}, RunOptions{MaxRounds: 100000})
	if !res.Balanced {
		t.Fatalf("heterogeneous run did not balance in %d rounds", res.Rounds)
	}
	for r := 0; r < 20; r++ {
		if s.Load(r) > s.Threshold(r) {
			t.Fatalf("resource %d over its proportional threshold", r)
		}
	}
}

// Property: one protocol round conserves the task multiset and total
// weight for every protocol family.
func TestPropertyRoundConservation(t *testing.T) {
	r := rng.NewSeeded(63)
	g := graph.Grid2D(4, 4, true)
	protos := []func() Protocol{
		func() Protocol { return ResourceControlled{Kernel: walk.NewMaxDegree(g)} },
		func() Protocol { return UserControlledGraph{Alpha: 1} },
		func() Protocol {
			return Mixed{
				A:      ResourceControlled{Kernel: walk.NewMaxDegree(g)},
				B:      UserControlledGraph{Alpha: 1},
				Period: 2,
			}
		},
	}
	f := func(seed uint16) bool {
		m := 20 + int(seed%80)
		ws := task.UniformRange{Lo: 1, Hi: 5}.Weights(m, r)
		ts := task.NewSet(ws)
		placement := make([]int, m)
		for i := range placement {
			placement[i] = r.Intn(g.N())
		}
		for _, mk := range protos {
			s := NewState(g, ts, placement, AboveAverage{Eps: 0.3}, uint64(seed))
			p := mk()
			for round := 0; round < 5; round++ {
				s.Step(p)
				if err := s.CheckInvariants(); err != nil {
					t.Logf("invariant: %v", err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceControlledSingleBalances(t *testing.T) {
	g := graph.Grid2D(4, 4, true)
	ts := unitTasks(64)
	s := NewState(g, ts, singleSource(64), AboveAverage{Eps: 0.5}, 64)
	p := ResourceControlledSingle{Kernel: walk.NewMaxDegree(g)}
	res := Run(s, p, RunOptions{MaxRounds: 500000, CheckInvariants: true})
	if !res.Balanced {
		t.Fatalf("single-task variant did not balance in %d rounds", res.Rounds)
	}
	// It moves exactly one task per overloaded resource per round, so
	// migrations ≤ rounds·n trivially, and rounds should exceed the
	// batch variant's on this workload.
	s2 := NewState(g, ts, singleSource(64), AboveAverage{Eps: 0.5}, 64)
	res2 := Run(s2, ResourceControlled{Kernel: walk.NewMaxDegree(g)}, RunOptions{MaxRounds: 500000})
	if !res2.Balanced {
		t.Fatal("batch variant did not balance")
	}
	if res.Rounds < res2.Rounds {
		t.Fatalf("single-task (%d rounds) should not beat batch (%d rounds) from a single hot spot",
			res.Rounds, res2.Rounds)
	}
}

func TestUserControlledSingleResourceNoPanic(t *testing.T) {
	// n = 1: the only resource is permanently overloaded under an
	// impossible threshold; the protocol must not panic sampling a
	// destination from zero alternatives.
	g := graph.Build("singleton", 1, nil)
	ts := unitTasks(5)
	s := NewState(g, ts, singleSource(5), FixedVector{V: []float64{1}, Label: "tight1"}, 70)
	p := UserControlled{Alpha: 1}
	for i := 0; i < 10; i++ {
		s.Step(p)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.Load(0) != 5 {
		t.Fatalf("load changed on singleton graph: %v", s.Load(0))
	}
}

func TestDynamicInsertRemove(t *testing.T) {
	g := graph.Complete(4)
	s := NewState(g, task.NewEmptySet(), nil, FixedVector{V: make([]float64, 4)}, 1)
	a := s.InsertTask(3, 0)
	b := s.InsertTask(5, 2)
	if a.ID != 0 || b.ID != 1 || s.Load(0) != 3 || s.Load(2) != 5 {
		t.Fatalf("inserts wrong: %+v %+v", a, b)
	}
	if s.Location(b.ID) != 2 || s.InFlightWeight() != 8 {
		t.Fatalf("location/weight wrong: loc=%d W=%v", s.Location(b.ID), s.InFlightWeight())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	gone := s.RemoveTaskAt(0, 0)
	if gone.ID != a.ID || s.Load(0) != 0 || s.InFlightWeight() != 5 {
		t.Fatalf("departure wrong: %+v load=%v", gone, s.Load(0))
	}
	if s.Location(a.ID) != -1 || !s.Tasks().Removed(a.ID) {
		t.Fatal("departed task still registered")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The departed ID is recycled for the next arrival and the
	// invariants still hold.
	c := s.InsertTask(2, 1)
	if c.ID != a.ID || s.Tasks().Removed(c.ID) {
		t.Fatalf("post-departure ID %d, want recycled %d", c.ID, a.ID)
	}
	if s.Location(c.ID) != 1 || s.InFlightWeight() != 7 {
		t.Fatalf("recycled task misplaced: loc=%d W=%v", s.Location(c.ID), s.InFlightWeight())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsZeroAllocs: a warm state checks its invariants
// without allocating, so a run with the check on every round stays
// allocation-free, and a check after a clean one still finds a task
// that has gone missing from every stack.
func TestCheckInvariantsZeroAllocs(t *testing.T) {
	g := graph.Complete(4)
	s := NewState(g, task.NewEmptySet(), nil, FixedVector{V: []float64{4, 4, 4, 4}}, 1)
	for i := 0; i < 12; i++ {
		s.InsertTask(float64(1+i%3), i%4)
	}
	s.RemoveTaskAt(2, 0)
	held := s.stacks[1].PopAt(0)
	s.MarkInFlight(held)
	for i := 0; i < 50; i++ {
		s.Step(UserControlled{Alpha: 1})
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("CheckInvariants allocates %v times per call on a warm state, want 0", allocs)
	}
	r := s.Location(0)
	lost := s.stacks[r].PopAt(0)
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("task %d off every stack: CheckInvariants = %v, want it lost", lost.ID, err)
	}
}

func TestEvacuateAndAttach(t *testing.T) {
	g := graph.Complete(3)
	ts := task.NewSet([]float64{2, 3, 4})
	s := NewState(g, ts, []int{1, 1, 1}, FixedVector{V: []float64{9, 9, 9}}, 1)
	out := s.Evacuate(1)
	if len(out) != 3 || s.Load(1) != 0 {
		t.Fatalf("evacuate returned %d tasks, load %v", len(out), s.Load(1))
	}
	// Mid-evacuation the invariants must fail (tasks in limbo)...
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("limbo state passed invariants")
	}
	// ...and re-homing restores them, conserving weight.
	for i, tk := range out {
		s.Attach(tk, i%3)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.InFlightWeight() != 9 {
		t.Fatalf("weight not conserved: %v", s.InFlightWeight())
	}
}

func TestThresholdRefresh(t *testing.T) {
	g := graph.Complete(2)
	ts := task.NewSet([]float64{2, 2})
	s := NewState(g, ts, []int{0, 1}, TightUser{}, 1)
	if s.Threshold(0) != 4 { // W/n + wmax = 2 + 2
		t.Fatalf("initial threshold %v", s.Threshold(0))
	}
	s.SetThresholds([]float64{7, 8})
	if s.Threshold(0) != 7 || s.Threshold(1) != 8 {
		t.Fatal("SetThresholds ignored")
	}
	// Growing the task set and refreshing recomputes from live totals.
	s.InsertTask(6, 0) // W=10, wmax=6
	s.SetThresholds(TightUser{}.Values(s.Tasks(), s.N()))
	if s.Threshold(0) != 11 { // 10/2 + 6
		t.Fatalf("refreshed threshold %v", s.Threshold(0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad SetThresholds length did not panic")
		}
	}()
	s.SetThresholds([]float64{1})
}

func TestProtocolsRunOnDynamicState(t *testing.T) {
	// A state grown entirely through InsertTask balances under the
	// standard protocols exactly like a statically placed one.
	g := graph.Complete(10)
	s := NewState(g, task.NewEmptySet(), nil, FixedVector{V: make([]float64, 10)}, 3)
	for i := 0; i < 60; i++ {
		s.InsertTask(1+float64(i%3), 0) // all on one resource
	}
	s.SetThresholds(AboveAverage{Eps: 0.3}.Values(s.Tasks(), s.N()))
	res := Run(s, UserControlled{Alpha: 1}, RunOptions{MaxRounds: 100000, CheckInvariants: true})
	if !res.Balanced {
		t.Fatalf("dynamic-grown state did not balance: %+v", res)
	}
}

func TestLiveWMaxTracksDepartures(t *testing.T) {
	g := graph.Complete(2)
	s := NewState(g, task.NewEmptySet(), nil, FixedVector{V: []float64{9, 9}}, 1)
	s.InsertTask(3, 0)
	heavy := s.InsertTask(7, 1)
	if s.LiveWMax() != 7 {
		t.Fatalf("live wmax %v want 7", s.LiveWMax())
	}
	s.RemoveTaskAt(s.Location(heavy.ID), 0)
	// The watermark keeps the departed heavyweight; the live view
	// (which online thresholds use) does not.
	if s.Tasks().WMax() != 7 || s.LiveWMax() != 3 {
		t.Fatalf("wmax watermark=%v live=%v", s.Tasks().WMax(), s.LiveWMax())
	}
	s.RemoveTaskAt(0, 0)
	if s.LiveWMax() != 0 {
		t.Fatalf("empty-system live wmax %v", s.LiveWMax())
	}
}

func TestLeaveProbabilityUsesLiveWMax(t *testing.T) {
	// A departed heavyweight outlier must not keep suppressing the
	// user-controlled migration coin: the denominator is the live max
	// weight, not the all-time watermark.
	g := graph.Complete(4)
	s := NewState(g, task.NewEmptySet(), nil, FixedVector{V: []float64{1, 1, 1, 1}}, 1)
	heavy := s.InsertTask(1000, 0)
	for i := 0; i < 10; i++ {
		s.InsertTask(2, 1) // resource 1: load 20 over threshold 1
	}
	p := UserControlled{Alpha: 1}
	// With the heavyweight alive, ceil(phi/1000) = 1 -> prob 1/10.
	if got := p.leaveProbability(s, 1); got != 0.1 {
		t.Fatalf("live-heavy probability %v want 0.1", got)
	}
	s.RemoveTaskAt(0, 0)
	_ = heavy
	// Heavy departed: live wmax is 2, ceil(20/2) = 10 -> prob 1.
	if got := p.leaveProbability(s, 1); got != 1 {
		t.Fatalf("post-departure probability %v want 1 (watermark wmax=%v, live=%v)",
			got, s.Tasks().WMax(), s.LiveWMax())
	}
}
