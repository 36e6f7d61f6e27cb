package stack

import (
	"repro/internal/snapshot"
	"repro/internal/task"
)

// restoreSlack is how many free slots each restored stack gets above
// its tasks, so that most pushes of the rounds after a resume land
// without reallocating. A stack that grew in the checkpointed run kept
// the room it grew, 16 slots for most stacks of the 1k sim fleet, but
// the snapshot records only its tasks.
const restoreSlack = 8

// Snapshot walks a fleet's stacks in order, each as its tasks bottom
// to top and then its load. The load goes as its recorded bit pattern
// rather than being recomputed, because a resumed run must continue
// the incrementally accumulated float from precisely where the
// checkpointed run left it (a fresh summation could differ in the last
// ulp).
//
// Reading, it restores every stack into one arena instead of one
// allocation per stack. The arena is sized from the bytes left in the
// section, which bound the tasks still to come: a stack takes 12
// bytes of framing (its length and load) and 16 per task. Each stack
// is a three-index window of the arena holding its tasks and
// restoreSlack free slots, so a push past them reallocates that stack
// alone and can never write into its neighbour's window.
func Snapshot(c *snapshot.Codec, stacks []Stack) {
	var arena []task.Task
	if c.Reading() {
		tasks := max((c.Remaining()-12*len(stacks))/16, 0)
		arena = make([]task.Task, tasks+restoreSlack*len(stacks))
	}
	for i := range stacks {
		s := &stacks[i]
		n := len(s.tasks)
		c.Len(&n, 16)
		if c.Reading() {
			if k := n + restoreSlack; k <= len(arena) {
				s.tasks, arena = arena[:n:k], arena[k:]
			} else { // only a malformed section claims more tasks than its bytes hold
				s.tasks = make([]task.Task, n, k)
			}
		}
		for j := range s.tasks {
			c.Int(&s.tasks[j].ID)
			c.Float64(&s.tasks[j].Weight)
		}
		c.Float64(&s.load)
	}
}
