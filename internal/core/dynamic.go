package core

import (
	"fmt"

	"repro/internal/task"
)

// Open-system mutators. The static protocols treat the task population
// and the threshold vector as fixed for a whole run; the dynamic engine
// (internal/dynamic) interleaves protocol rounds with arrivals,
// departures, resource churn and online threshold refreshes through the
// methods below. All of them keep the stack/location/task-set triple
// consistent, so CheckInvariants holds between engine phases.
//
// The sharded engine splits the arrival and departure mutations into a
// sequential half that touches shared aggregates (task-set accounting,
// the live-wmax cache) and a parallel half that touches only one
// resource's stack plus that task's location entry — Register/Place for
// arrivals, RemoveForDeparture/SettleDeparture for departures. The
// single-resource halves are safe to run concurrently for disjoint
// resources; the shared halves run at barriers in canonical (ascending
// resource) order so float accumulation is identical for every worker
// count.

// noteInsertWeight maintains the live-wmax cache across an arrival.
func (s *State) noteInsertWeight(w float64) {
	if s.liveWMaxDirty {
		if w > s.liveWMax {
			s.liveWMax = w // valid even while dirty: keeps an upper bound
		}
		return
	}
	switch {
	case w > s.liveWMax:
		s.liveWMax, s.liveWMaxCount = w, 1
	case w == s.liveWMax:
		s.liveWMaxCount++
	}
}

// noteRemoveWeight maintains the live-wmax cache across a departure:
// the cache only goes dirty once the last live task at the maximum
// weight leaves, so capped weight distributions (many tasks sharing
// wmax) almost never trigger the O(live) rescan.
func (s *State) noteRemoveWeight(w float64) {
	if s.liveWMaxDirty {
		return
	}
	if w == s.liveWMax {
		s.liveWMaxCount--
		if s.liveWMaxCount == 0 {
			s.liveWMaxDirty = true
		}
	}
}

// setLoc records task id's location, growing the map when the task set
// extended its ID space (recycled IDs reuse their slot).
func (s *State) setLoc(id int, r int32) {
	for id >= len(s.loc) {
		s.loc = append(s.loc, -1)
	}
	s.loc[id] = r
}

// InsertTask registers a brand-new task of weight w (reusing a retired
// ID when one is free) and places it on resource r — an open-system
// arrival.
func (s *State) InsertTask(w float64, r int) task.Task {
	tk := s.RegisterArrival(w)
	s.PlaceArrival(tk, r)
	return tk
}

// RegisterArrival runs the shared half of an arrival: the task joins
// the set (ID assignment, weight accounting, wmax cache) but is not yet
// on any resource. Complete it with PlaceArrival before the next
// consistency point. Sequential only.
func (s *State) RegisterArrival(w float64) task.Task {
	tk := s.ts.Add(w)
	s.setLoc(tk.ID, -1)
	s.noteInsertWeight(w)
	return tk
}

// PlaceArrival runs the per-resource half of an arrival: the
// registered task lands on resource r. Safe to call concurrently for
// disjoint r.
func (s *State) PlaceArrival(tk task.Task, r int) {
	if r < 0 || r >= len(s.stacks) {
		panic(fmt.Sprintf("core: PlaceArrival on invalid resource %d", r))
	}
	s.stacks[r].Push(tk)
	s.loc[tk.ID] = int32(r)
	s.updateOverloaded(r)
}

// RemoveTaskAt removes the task at stack position idx of resource r
// from the system entirely — a departure. The task leaves the stack and
// its ID is retired to the task set's free list.
func (s *State) RemoveTaskAt(r, idx int) task.Task {
	tk := s.stacks[r].PopAt(idx)
	s.loc[tk.ID] = -1
	s.updateOverloaded(r)
	s.SettleDeparture(tk)
	return tk
}

// RemoveForDeparture runs the per-resource half of a batch departure:
// the tasks at the given strictly increasing stack positions of
// resource r leave the stack (appended to dst) and their locations are
// cleared, but the shared task-set accounting is untouched. Safe to
// call concurrently for disjoint r; every returned task must be handed
// to SettleDeparture at the next barrier, in canonical order.
func (s *State) RemoveForDeparture(r int, indices []int, dst []task.Task) []task.Task {
	n := len(dst)
	dst = s.stacks[r].RemoveIndicesAppend(indices, dst)
	for _, tk := range dst[n:] {
		s.loc[tk.ID] = -1
	}
	s.updateOverloaded(r)
	return dst
}

// SettleDeparture runs the shared half of a departure: weight
// accounting, wmax cache and ID retirement. Sequential only.
func (s *State) SettleDeparture(tk task.Task) {
	s.ts.Remove(tk.ID)
	s.noteRemoveWeight(tk.Weight)
}

// LiveWMax returns the maximum weight among in-flight tasks (0 when
// the system is empty). Unlike Set.WMax — a high-watermark that keeps
// counting long-departed tasks — this is the right wmax for protocol
// probabilities and thresholds that track the current population. The
// value is cached together with the count of live tasks at the
// maximum; it is recomputed (O(n + live tasks)) only after the last
// such task departs, so callers must not query it while tasks are in
// limbo between Evacuate and Attach.
func (s *State) LiveWMax() float64 {
	if s.liveWMaxDirty {
		m, c := 0.0, 0
		for r := range s.stacks {
			for _, tk := range s.stacks[r].Tasks() {
				switch {
				case tk.Weight > m:
					m, c = tk.Weight, 1
				case tk.Weight == m:
					c++
				}
			}
		}
		s.liveWMax, s.liveWMaxCount = m, c
		s.liveWMaxDirty = false
	}
	return s.liveWMax
}

// Evacuate pops every task off resource r — a resource leaving the
// system. The tasks stay registered but are in limbo (Location −1)
// until re-homed with Attach; CheckInvariants fails while tasks are in
// limbo, so callers must re-home before the next consistency point.
func (s *State) Evacuate(r int) []task.Task {
	return s.EvacuateAppend(r, nil)
}

// EvacuateAppend is Evacuate into a caller-provided buffer.
func (s *State) EvacuateAppend(r int, dst []task.Task) []task.Task {
	n := len(dst)
	dst = append(dst, s.stacks[r].Tasks()...)
	s.stacks[r].Reset()
	for _, tk := range dst[n:] {
		s.loc[tk.ID] = -1
	}
	s.updateOverloaded(r)
	return dst
}

// Attach pushes an already-registered task onto resource r — the
// re-homing half of Evacuate, also used to bounce migrations off
// resources that left the system mid-round.
func (s *State) Attach(t task.Task, r int) {
	if r < 0 || r >= len(s.stacks) {
		panic(fmt.Sprintf("core: Attach on invalid resource %d", r))
	}
	s.stacks[r].Push(t)
	s.loc[t.ID] = int32(r)
	s.updateOverloaded(r)
}

// SetThresholds replaces the threshold vector in place — the dynamic
// engine's online refresh. The vector must have length N.
func (s *State) SetThresholds(v []float64) {
	if len(v) != len(s.stacks) {
		panic(fmt.Sprintf("core: SetThresholds got %d values, need %d", len(v), len(s.stacks)))
	}
	copy(s.thr, v)
	s.recountOverloaded()
}

// InFlightWeight returns W(t), the total weight of live tasks.
func (s *State) InFlightWeight() float64 { return s.ts.W() }
