package stack

import "repro/internal/snapshot"

// Snapshot walks the stack's tasks bottom to top, then its load. The
// load goes as its recorded bit pattern rather than being recomputed,
// because a resumed run must continue the incrementally accumulated
// float from precisely where the checkpointed run left it (a fresh
// summation could differ in the last ulp).
func (s *Stack) Snapshot(c *snapshot.Codec) {
	n := len(s.tasks)
	c.Len(&n, 16)
	snapshot.Resize(c, &s.tasks, n)
	for i := range s.tasks {
		c.Int(&s.tasks[i].ID)
		c.Float64(&s.tasks[i].Weight)
	}
	c.Float64(&s.load)
}
