package faults

import (
	"fmt"

	"repro/internal/snapshot"
)

// Snapshot walks the injector's sequential engine-loop state through
// c, as one section body (the caller brackets it with Begin/End): the
// in-flight ledger, the delay wheel, the dedup table, the token
// allocator, the partition groups and the cumulative counters. Every
// wheel slot goes verbatim, in-slot order preserved (Tick walks slots
// in order, so order is semantic), and each record with its source and
// send round, which its late delivery reports as From and as the base
// of its latency. The per-shard scratch, the transition map and the
// delta buffers are transient: NewInjector builds them, or a round
// refills them. The partition group vector is recorded rather than
// recomputed because StartRound only refreshes it on window-transition
// rounds; a resume mid-window would otherwise run with a stale (empty)
// group map. Reading requires a freshly built injector of the same
// plan and fleet size.
func (inj *Injector) Snapshot(c *snapshot.Codec) {
	snapshot.Slice(c, &inj.ledger, 44, func(f *flight) {
		c.Int(&f.tk.ID)
		c.Float64(&f.tk.Weight)
		c.Int32(&f.src)
		c.Int32(&f.dest)
		c.Int32(&f.attempt)
		c.Int32(&f.nextTry)
		c.Int32(&f.deadline)
		c.Uint64(&f.token)
	})
	slots := len(inj.wheel)
	c.Len(&slots, 4)
	if slots != len(inj.wheel) {
		c.Fail(fmt.Errorf("faults: snapshot wheel has %d slots, plan compiles to %d", slots, len(inj.wheel)))
		return
	}
	for i := range inj.wheel {
		snapshot.Slice(c, &inj.wheel[i], 40, func(wr *wheelRec) {
			c.Int(&wr.tk.ID)
			c.Float64(&wr.tk.Weight)
			c.Int32(&wr.src)
			c.Int32(&wr.dest)
			c.Int32(&wr.due)
			c.Int32(&wr.sent)
			c.Uint64(&wr.token)
		})
	}
	c.Uint64s(&inj.pend)
	c.Uint64(&inj.nextToken)
	hasGroup := inj.group != nil
	c.Bool(&hasGroup)
	if hasGroup != (inj.group != nil) {
		c.Fail(fmt.Errorf("faults: snapshot partition state (%v) does not match the plan (%v)", hasGroup, inj.group != nil))
		return
	}
	if hasGroup {
		c.Int32s(&inj.group)
		if len(inj.group) != inj.n {
			c.Fail(fmt.Errorf("faults: snapshot partition groups cover %d resources, fleet has %d", len(inj.group), inj.n))
		}
	}
	c.Bool(&inj.parted)
	c.Int64(&inj.c.Lost)
	c.Int64(&inj.c.Delayed)
	c.Int64(&inj.c.Duplicated)
	c.Int64(&inj.c.Deduped)
	c.Int64(&inj.c.Retries)
	c.Int64(&inj.c.Timeouts)
	c.Int64(&inj.c.PartitionBlocked)
}
