package core

import (
	"fmt"

	"repro/internal/snapshot"
	"repro/internal/stack"
)

// Snapshot walks the state's checkpoint section through c: the round
// counter, the threshold vector, the task locations, the live-wmax
// cache, the in-flight ledger and every stack. Every incrementally
// maintained float goes as its exact bit pattern, so a resumed run
// continues bit for bit where the checkpointed one stopped. The task
// set and the random streams are walked by the caller, in their own
// sections. The overloaded set is the one piece of derived state that
// is recounted instead of recorded: it is pure comparison, no float
// accumulation, so recounting cannot drift.
func (s *State) Snapshot(c *snapshot.Codec) {
	c.Int(&s.round)
	c.Float64s(&s.thr)
	c.Int32s(&s.loc)
	c.Float64(&s.liveWMax)
	c.Int(&s.liveWMaxCount)
	c.Bool(&s.liveWMaxDirty)
	c.Int(&s.inflightN)
	c.Float64(&s.inflightW)
	stack.Snapshot(c, s.stacks)
	if !c.Reading() {
		return
	}
	if len(s.thr) != len(s.stacks) {
		c.Fail(fmt.Errorf("core: snapshot threshold vector covers %d resources, fleet has %d", len(s.thr), len(s.stacks)))
	}
	if c.Err() == nil {
		s.recountOverloaded()
	}
}
