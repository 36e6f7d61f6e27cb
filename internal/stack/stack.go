// Package stack implements the per-resource task stack of Sections 4–6.
//
// Every resource stores its tasks in a stack; the height h of a task is
// the sum of the weights of the tasks below it. Relative to a threshold
// T, a task with height h and weight w is
//
//	completely below  if h + w ≤ T,
//	cutting           if h < T < h + w,
//	completely above  if h ≥ T.
//
// Because heights increase monotonically up the stack, the partition is
// always: a prefix of below tasks, at most one cutting task, then a
// suffix of above tasks. The resource-controlled protocol removes the
// cutting and above tasks (the sets Ic ∪ Ia); the potential functions
// of Section 5.2 and 6 count exactly the weight of those tasks.
package stack

import (
	"fmt"

	"repro/internal/task"
)

// Stack is one resource's task pile. The zero value is an empty stack
// ready for use. Index 0 is the bottom.
type Stack struct {
	tasks []task.Task
	load  float64
}

// Push adds t on top of the stack.
func (s *Stack) Push(t task.Task) {
	s.tasks = append(s.tasks, t)
	s.load += t.Weight
}

// Len returns the number of tasks b_r.
func (s *Stack) Len() int { return len(s.tasks) }

// Load returns the total weight x_r.
func (s *Stack) Load() float64 { return s.load }

// Task returns the i-th task from the bottom.
func (s *Stack) Task(i int) task.Task { return s.tasks[i] }

// Tasks returns the internal slice, bottom to top. Callers must not
// modify it.
func (s *Stack) Tasks() []task.Task { return s.tasks }

// HeightOf returns the height of the i-th task: the total weight
// strictly below it. O(i).
func (s *Stack) HeightOf(i int) float64 {
	h := 0.0
	for j := 0; j < i; j++ {
		h += s.tasks[j].Weight
	}
	return h
}

// Classification of one task relative to a threshold.
type Classification int

// The three Section 4 classes.
const (
	Below Classification = iota
	Cutting
	Above
)

// String renders the class name.
func (c Classification) String() string {
	switch c {
	case Below:
		return "below"
	case Cutting:
		return "cutting"
	case Above:
		return "above"
	default:
		return fmt.Sprintf("Classification(%d)", int(c))
	}
}

// Classify returns the class of the i-th task w.r.t. threshold t.
func (s *Stack) Classify(i int, t float64) Classification {
	h := s.HeightOf(i)
	w := s.tasks[i].Weight
	switch {
	case h+w <= t:
		return Below
	case h >= t:
		return Above
	default:
		return Cutting
	}
}

// Partition returns (belowCount, hasCutting): the first belowCount
// tasks are completely below t; if hasCutting, task belowCount is the
// cutting task and everything after it is above; otherwise every task
// from belowCount on is above. O(len).
func (s *Stack) Partition(t float64) (belowCount int, hasCutting bool) {
	h := 0.0
	for i, tk := range s.tasks {
		if h+tk.Weight <= t {
			h += tk.Weight
			continue
		}
		// First task not completely below. Heights only grow, so the
		// partition is decided here.
		return i, h < t
	}
	return len(s.tasks), false
}

// OverflowWeight returns φ_r(t): the weight of the cutting task (if
// any) plus the weights of all tasks above threshold t. Zero when the
// load is ≤ t.
func (s *Stack) OverflowWeight(t float64) float64 {
	below, _ := s.Partition(t)
	w := 0.0
	for i := below; i < len(s.tasks); i++ {
		w += s.tasks[i].Weight
	}
	return w
}

// OverflowCount returns |Ic ∪ Ia| w.r.t. threshold t.
func (s *Stack) OverflowCount(t float64) int {
	below, _ := s.Partition(t)
	return len(s.tasks) - below
}

// PopOverflowAppend removes every task that is cutting or above
// threshold t — one step of the resource-controlled protocol from this
// resource's perspective — and appends them, in bottom-to-top order, to
// dst, which is returned. The remaining prefix is untouched, so
// previously accepted tasks keep their heights ("once a task is
// accepted by a resource, it will never leave that resource again").
// Per-shard scratch buffers passed as dst keep the open-system
// engine's steady-state rounds allocation-free.
func (s *Stack) PopOverflowAppend(t float64, dst []task.Task) []task.Task {
	below, _ := s.Partition(t)
	for i := below; i < len(s.tasks); i++ {
		s.load -= s.tasks[i].Weight
		dst = append(dst, s.tasks[i])
	}
	s.tasks = s.tasks[:below]
	return dst
}

// RemoveIndices removes the tasks at the given (strictly increasing)
// positions and returns them in stack order. Remaining tasks slide
// down, preserving relative order — this models user-controlled
// departures, where any task on an overloaded resource may leave
// regardless of position. Panics on out-of-range or non-increasing
// indices.
func (s *Stack) RemoveIndices(indices []int) []task.Task {
	if len(indices) == 0 {
		return nil
	}
	return s.RemoveIndicesAppend(indices, make([]task.Task, 0, len(indices)))
}

// RemoveIndicesAppend is RemoveIndices into a caller-provided buffer:
// removed tasks are appended to dst, which is returned (unchanged when
// indices is empty). The allocation-free variant for reusable
// per-shard departure and migration buffers.
func (s *Stack) RemoveIndicesAppend(indices []int, dst []task.Task) []task.Task {
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
	// Compact in one pass: slide each run of kept tasks between two
	// removed positions down over the gap opened so far.
	w := indices[0]
	for k, i := range indices {
		end := len(s.tasks)
		if k+1 < len(indices) {
			end = indices[k+1]
		}
		w += copy(s.tasks[w:], s.tasks[i+1:end])
	}
	s.tasks = s.tasks[:w]
	return dst
}

// PopAt removes and returns the task at position i; the tasks above it
// slide down one slot, preserving relative order. O(len−i). This is the
// open-system departure primitive: service completions leave from the
// bottom (i = 0, FIFO) and geometric departures from arbitrary
// positions. Panics on an out-of-range index.
func (s *Stack) PopAt(i int) task.Task {
	if i < 0 || i >= len(s.tasks) {
		panic(fmt.Sprintf("stack: PopAt index %d out of range (len %d)", i, len(s.tasks)))
	}
	tk := s.tasks[i]
	s.load -= tk.Weight
	copy(s.tasks[i:], s.tasks[i+1:])
	s.tasks = s.tasks[:len(s.tasks)-1]
	return tk
}

// Clone returns a deep copy.
func (s *Stack) Clone() *Stack {
	return &Stack{tasks: append([]task.Task(nil), s.tasks...), load: s.load}
}

// Reset empties the stack, retaining capacity.
func (s *Stack) Reset() {
	s.tasks = s.tasks[:0]
	s.load = 0
}

// CheckInvariants verifies internal consistency (load equals the sum of
// weights, all weights ≥ 1). Used by tests and debug assertions.
func (s *Stack) CheckInvariants() error {
	sum := 0.0
	for i, tk := range s.tasks {
		if tk.Weight < 1 {
			return fmt.Errorf("stack: task %d at position %d has weight %v < 1", tk.ID, i, tk.Weight)
		}
		sum += tk.Weight
	}
	if diff := sum - s.load; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("stack: cached load %v != recomputed %v", s.load, sum)
	}
	return nil
}
