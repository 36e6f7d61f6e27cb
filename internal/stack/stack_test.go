package stack

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/task"
)

func mk(weights ...float64) *Stack {
	s := &Stack{}
	for i, w := range weights {
		s.Push(task.Task{ID: i, Weight: w})
	}
	return s
}

func TestPushLoadLen(t *testing.T) {
	s := mk(2, 3, 5)
	if s.Len() != 3 || s.Load() != 10 {
		t.Fatalf("len=%d load=%v", s.Len(), s.Load())
	}
	if s.Task(0).Weight != 2 || s.Task(2).Weight != 5 {
		t.Fatal("stack order wrong")
	}
}

func TestHeights(t *testing.T) {
	s := mk(2, 3, 5)
	for i, want := range []float64{0, 2, 5} {
		if got := s.HeightOf(i); got != want {
			t.Fatalf("height(%d)=%v want %v", i, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	// Stack: [2, 3, 5], threshold 4.
	// Task 0: h=0, h+w=2 ≤ 4 → below.
	// Task 1: h=2 < 4 < h+w=5 → cutting.
	// Task 2: h=5 ≥ 4 → above.
	s := mk(2, 3, 5)
	wants := []Classification{Below, Cutting, Above}
	for i, want := range wants {
		if got := s.Classify(i, 4); got != want {
			t.Fatalf("classify(%d)=%v want %v", i, got, want)
		}
	}
}

func TestClassifyBoundaryExactFit(t *testing.T) {
	// h + w == T counts as below (the paper accepts height+weight ≤ T).
	s := mk(2, 2)
	if got := s.Classify(1, 4); got != Below {
		t.Fatalf("exact-fit task classified %v want below", got)
	}
	// h == T counts as above.
	if got := s.Classify(1, 2); got != Above {
		t.Fatalf("h==T task classified %v want above", got)
	}
}

func TestPartition(t *testing.T) {
	s := mk(2, 3, 5)
	below, cutting := s.Partition(4)
	if below != 1 || !cutting {
		t.Fatalf("partition=%d,%v want 1,true", below, cutting)
	}
	// Threshold exactly at a task boundary: [2,3,5], T=5 →
	// task0 below (2≤5), task1 below (5≤5), task2 h=5 ≥ 5 above, no cutting.
	below, cutting = s.Partition(5)
	if below != 2 || cutting {
		t.Fatalf("partition(T=5)=%d,%v want 2,false", below, cutting)
	}
	// Everything below.
	below, cutting = s.Partition(100)
	if below != 3 || cutting {
		t.Fatalf("partition(T=100)=%d,%v", below, cutting)
	}
	// Empty stack.
	e := &Stack{}
	below, cutting = e.Partition(1)
	if below != 0 || cutting {
		t.Fatal("empty partition wrong")
	}
}

func TestOverflowWeightAndCount(t *testing.T) {
	s := mk(2, 3, 5)
	if got := s.OverflowWeight(4); got != 8 { // cutting(3) + above(5)
		t.Fatalf("overflow weight=%v want 8", got)
	}
	if got := s.OverflowCount(4); got != 2 {
		t.Fatalf("overflow count=%d want 2", got)
	}
	if got := s.OverflowWeight(100); got != 0 {
		t.Fatalf("no-overflow weight=%v", got)
	}
}

func TestPopOverflow(t *testing.T) {
	s := mk(2, 3, 5)
	removed := s.PopOverflowAppend(4, nil)
	if len(removed) != 2 || removed[0].Weight != 3 || removed[1].Weight != 5 {
		t.Fatalf("removed=%v", removed)
	}
	if s.Len() != 1 || s.Load() != 2 {
		t.Fatalf("after pop: len=%d load=%v", s.Len(), s.Load())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Second pop is a no-op.
	if got := s.PopOverflowAppend(4, nil); got != nil {
		t.Fatalf("second pop returned %v", got)
	}
}

func TestPopOverflowKeepsAcceptedPrefix(t *testing.T) {
	// Once accepted (fully below), tasks never move again even after
	// repeated pops at different loads.
	s := mk(1, 1, 1, 10)
	_ = s.PopOverflowAppend(3.5, nil)
	if s.Len() != 3 {
		t.Fatalf("len=%d want 3", s.Len())
	}
	for i := 0; i < 3; i++ {
		if s.Task(i).ID != i {
			t.Fatal("accepted prefix reordered")
		}
	}
}

func TestRemoveIndices(t *testing.T) {
	s := mk(1, 2, 3, 4, 5)
	removed := s.RemoveIndices([]int{1, 3})
	if len(removed) != 2 || removed[0].Weight != 2 || removed[1].Weight != 4 {
		t.Fatalf("removed=%v", removed)
	}
	if s.Len() != 3 || s.Load() != 9 {
		t.Fatalf("after remove: len=%d load=%v", s.Len(), s.Load())
	}
	// Remaining relative order preserved: 1, 3, 5.
	for i, w := range []float64{1, 3, 5} {
		if s.Task(i).Weight != w {
			t.Fatalf("task %d weight=%v want %v", i, s.Task(i).Weight, w)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveIndicesEmpty(t *testing.T) {
	s := mk(1, 2)
	if got := s.RemoveIndices(nil); got != nil {
		t.Fatalf("nil removal returned %v", got)
	}
	if s.Len() != 2 {
		t.Fatal("nil removal changed stack")
	}
}

func TestRemoveIndicesPanics(t *testing.T) {
	for _, idx := range [][]int{{2}, {-1}, {0, 0}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("indices %v should panic", idx)
				}
			}()
			mk(1, 2).RemoveIndices(idx)
		}()
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := mk(1, 2, 3)
	c := s.Clone()
	c.PopOverflowAppend(0, nil)
	if s.Len() != 3 || s.Load() != 6 {
		t.Fatal("clone mutation affected original")
	}
	if c.Len() != 0 || c.Load() != 0 {
		t.Fatal("clone pop failed")
	}
}

func TestReset(t *testing.T) {
	s := mk(1, 2)
	s.Reset()
	if s.Len() != 0 || s.Load() != 0 {
		t.Fatal("reset failed")
	}
	s.Push(task.Task{ID: 9, Weight: 4})
	if s.Load() != 4 {
		t.Fatal("push after reset failed")
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	s := mk(1, 2)
	s.load = 99 // corrupt deliberately
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("corrupted load not detected")
	}
	bad := &Stack{}
	bad.Push(task.Task{ID: 0, Weight: 0.5})
	if err := bad.CheckInvariants(); err == nil {
		t.Fatal("sub-unit weight not detected")
	}
}

// Property: for random stacks and thresholds, the three classes
// partition the stack contiguously (below*, cutting?, above*) and
// PopOverflowAppend removes exactly the non-below classes.
func TestPropertyPartitionStructure(t *testing.T) {
	r := rng.NewSeeded(42)
	f := func(seed uint16) bool {
		n := 1 + int(seed%20)
		s := &Stack{}
		for i := 0; i < n; i++ {
			s.Push(task.Task{ID: i, Weight: 1 + 9*r.Float64()})
		}
		thr := s.Load() * r.Float64() * 1.2
		below, hasCutting := s.Partition(thr)
		// Verify against direct classification.
		for i := 0; i < s.Len(); i++ {
			c := s.Classify(i, thr)
			switch {
			case i < below:
				if c != Below {
					return false
				}
			case i == below && hasCutting:
				if c != Cutting {
					return false
				}
			default:
				if c != Above {
					return false
				}
			}
		}
		// Overflow weight equals sum of non-below weights.
		want := 0.0
		for i := below; i < s.Len(); i++ {
			want += s.Task(i).Weight
		}
		if diff := s.OverflowWeight(thr) - want; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		// Pop and check conservation.
		before := s.Load()
		removed := s.PopOverflowAppend(thr, nil)
		sum := 0.0
		for _, tk := range removed {
			sum += tk.Weight
		}
		if diff := before - (s.Load() + sum); diff > 1e-9 || diff < -1e-9 {
			return false
		}
		return s.CheckInvariants() == nil && s.Load() <= thr+1e-9 || below == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RemoveIndices conserves the multiset of tasks.
func TestPropertyRemoveConservation(t *testing.T) {
	r := rng.NewSeeded(43)
	f := func(seed uint16) bool {
		n := 2 + int(seed%30)
		s := &Stack{}
		totalBefore := 0.0
		for i := 0; i < n; i++ {
			w := 1 + 5*r.Float64()
			s.Push(task.Task{ID: i, Weight: w})
			totalBefore += w
		}
		// Random strictly increasing index subset.
		var idx []int
		for i := 0; i < n; i++ {
			if r.Bool(0.4) {
				idx = append(idx, i)
			}
		}
		removed := s.RemoveIndices(idx)
		if len(removed) != len(idx) {
			return false
		}
		sum := s.Load()
		for _, tk := range removed {
			sum += tk.Weight
		}
		if diff := sum - totalBefore; diff > 1e-9 || diff < -1e-9 {
			return false
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPopOverflow(b *testing.B) {
	base := &Stack{}
	for i := 0; i < 1000; i++ {
		base.Push(task.Task{ID: i, Weight: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := base.Clone()
		s.PopOverflowAppend(500, nil)
	}
}

func TestPopAt(t *testing.T) {
	s := mk(2, 3, 4)
	if got := s.PopAt(0); got.Weight != 2 {
		t.Fatalf("PopAt(0) = %+v", got)
	}
	if s.Len() != 2 || s.Load() != 7 || s.Task(0).Weight != 3 {
		t.Fatalf("after bottom pop: len=%d load=%v", s.Len(), s.Load())
	}
	if got := s.PopAt(1); got.Weight != 4 {
		t.Fatalf("PopAt(1) = %+v", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range PopAt did not panic")
		}
	}()
	s.PopAt(5)
}

// removeIndicesAppendReference is RemoveIndicesAppend as it was before
// the run-wise copy compaction: validation and removal first, then an
// element-by-element compaction pass.
func removeIndicesAppendReference(s *Stack, indices []int, dst []task.Task) []task.Task {
	if len(indices) == 0 {
		return dst
	}
	prev := -1
	for _, i := range indices {
		if i <= prev || i >= len(s.tasks) {
			panic(fmt.Sprintf("stack: RemoveIndices bad index %d (prev %d, len %d)", i, prev, len(s.tasks)))
		}
		prev = i
		dst = append(dst, s.tasks[i])
		s.load -= s.tasks[i].Weight
	}
	// Compact in one pass.
	out := s.tasks[:0]
	k := 0
	for i, tk := range s.tasks {
		if k < len(indices) && i == indices[k] {
			k++
			continue
		}
		out = append(out, tk)
	}
	s.tasks = out
	return dst
}

// removeBoth applies indices to two copies of s, one per
// implementation, and returns both stacks, both results and both
// panic values.
func removeBoth(s *Stack, indices []int) (got, want *Stack, gotOut, wantOut []task.Task, gotPanic, wantPanic any) {
	got, want = s.Clone(), s.Clone()
	prefix := []task.Task{{ID: -1, Weight: 9}}
	func() {
		defer func() { gotPanic = recover() }()
		gotOut = got.RemoveIndicesAppend(indices, append([]task.Task(nil), prefix...))
	}()
	func() {
		defer func() { wantPanic = recover() }()
		wantOut = removeIndicesAppendReference(want, indices, append([]task.Task(nil), prefix...))
	}()
	return
}

// TestRemoveIndicesAppendMatchesReference compares the run-wise copy
// compaction with the element-by-element one on random strictly
// increasing index sets — first, last, every and no position included
// — and on bad index sets, whose panic messages must agree.
func TestRemoveIndicesAppendMatchesReference(t *testing.T) {
	r := rng.NewSeeded(44)
	check := func(s *Stack, indices []int) {
		t.Helper()
		got, want, gotOut, wantOut, gotPanic, wantPanic := removeBoth(s, indices)
		if fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
			t.Fatalf("len %d indices %v: panic %v, reference %v", s.Len(), indices, gotPanic, wantPanic)
		}
		if gotPanic != nil {
			return
		}
		if !slices.Equal(gotOut, wantOut) {
			t.Fatalf("len %d indices %v: removed %v, reference %v", s.Len(), indices, gotOut, wantOut)
		}
		if !slices.Equal(got.Tasks(), want.Tasks()) || math.Float64bits(got.Load()) != math.Float64bits(want.Load()) {
			t.Fatalf("len %d indices %v: left %v (load %v), reference %v (load %v)",
				s.Len(), indices, got.Tasks(), got.Load(), want.Tasks(), want.Load())
		}
	}
	for _, n := range []int{0, 1, 2, 3, 8, 33, 200, 1000} {
		s := &Stack{}
		for i := 0; i < n; i++ {
			s.Push(task.Task{ID: i, Weight: 1 + 5*r.Float64()})
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		check(s, nil)
		check(s, all)
		if n > 0 {
			check(s, []int{0})
			check(s, []int{n - 1})
			check(s, []int{0, n - 1}[:min(2, n)])
		}
		for _, p := range []float64{0.05, 0.3, 0.7, 0.97} {
			for trial := 0; trial < 20; trial++ {
				check(s, r.AppendTrials(nil, n, p))
			}
		}
		// Bad sets: past the end, negative, repeated, decreasing, and a
		// bad entry after good ones.
		check(s, []int{n})
		check(s, []int{-1})
		if n > 1 {
			check(s, []int{0, 0})
			check(s, []int{1, 0})
			check(s, []int{0, 1, n})
		}
	}
}
