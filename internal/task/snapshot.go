package task

import (
	"fmt"

	"repro/internal/snapshot"
)

// Snapshot walks the set's complete state through c. Only the weights
// are recorded, because a task's ID is its index. The free list and
// the removed flags go verbatim (no flags for a set that has never
// removed a task): ID assignment is a pure function of the LIFO
// free-list order, so a resumed run hands out exactly the IDs the
// uninterrupted run would have. The weight aggregates (total, wmax,
// wmin) go as recorded bit patterns, never recomputed: total is
// accumulated incrementally round by round, and a fresh summation
// could land on a different last ulp.
func (s *Set) Snapshot(c *snapshot.Codec) {
	n := len(s.tasks)
	c.Len(&n, 8)
	if c.Reading() {
		snapshot.Resize(c, &s.tasks, n)
		for i := range s.tasks {
			s.tasks[i].ID = i
		}
	}
	for i := range s.tasks {
		c.Float64(&s.tasks[i].Weight)
	}
	c.Bools(&s.removed)
	c.Ints(&s.free)
	c.Int(&s.live)
	c.Int(&s.liveTop)
	c.Float64(&s.total)
	c.Float64(&s.wmax)
	c.Float64(&s.wmin)
	if !c.Reading() {
		return
	}
	switch len(s.removed) {
	case 0:
		// A set that has never removed a task keeps no flags.
		s.removed = nil
	case n:
	default:
		c.Fail(fmt.Errorf("task: snapshot set has %d removal flags for %d tasks", len(s.removed), n))
	}
}
