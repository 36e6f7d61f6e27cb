package core

import "repro/internal/walk"

// StepStats summarises one protocol round.
type StepStats struct {
	Migrations  int     // tasks that moved this round
	MovedWeight float64 // total weight of moved tasks
}

// Protocol is a migration rule. It supplies the propose half of a
// synchronous round; State.Step and the open-system engine deliver the
// proposed moves through the same Exchange.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// ProposeRange appends the propose-phase decisions for resources
	// [lo, hi) to sc.Moves, removing the migrating tasks from their
	// source stacks. It draws randomness only from the per-resource
	// streams of [lo, hi), so any sharding of [0, n) produces the same
	// move multiset as one sweep, and it is safe to call concurrently on
	// disjoint ranges with distinct scratches. Callers settle LiveWMax
	// first: the user protocols read it from every shard, and a dirty
	// cache would turn those reads into racy writes.
	ProposeRange(s *State, lo, hi int, sc *ProposeScratch)
}

// ResourceControlled is Algorithm 5.1: every resource r with
// x_r(t) > T_r removes each task in Ia ∪ Ic (the tasks above or
// cutting the threshold) and reallocates it to a neighbour sampled
// from the random-walk kernel.
type ResourceControlled struct {
	Kernel walk.Kernel
}

// Name identifies the protocol.
func (p ResourceControlled) Name() string {
	return "resource-controlled(" + p.Kernel.Name() + ")"
}

// ProposeRange implements Protocol: it scans resources [lo, hi),
// popping overflow from overloaded ones and sampling a destination per
// task from the source resource's own stream.
func (p ResourceControlled) ProposeRange(s *State, lo, hi int, sc *ProposeScratch) {
	for r := lo; r < hi; r++ {
		if !s.over[r] {
			continue
		}
		sc.tasks = s.popOverflow(r, sc.tasks[:0])
		rr := &s.rands[r]
		for _, tk := range sc.tasks {
			dest := p.Kernel.Step(r, rr)
			sc.Moves = append(sc.Moves, Migration{Task: tk, Dest: int32(dest)})
		}
	}
}

// ResourceControlledSingle is an ablation variant of Algorithm 5.1
// that removes at most ONE task (the topmost) from each overloaded
// resource per round — the token-by-token style of Hoefer–Sauerwald's
// resource-controlled protocol for uniform tasks. Compared with the
// paper's batch removal it trades fewer migrations per round for more
// rounds; the ablation experiment quantifies the trade.
type ResourceControlledSingle struct {
	Kernel walk.Kernel
}

// Name identifies the protocol.
func (p ResourceControlledSingle) Name() string {
	return "resource-controlled-single(" + p.Kernel.Name() + ")"
}

// ProposeRange implements Protocol.
func (p ResourceControlledSingle) ProposeRange(s *State, lo, hi int, sc *ProposeScratch) {
	for r := lo; r < hi; r++ {
		if !s.over[r] {
			continue
		}
		sc.idx = append(sc.idx[:0], s.stacks[r].Len()-1)
		sc.tasks = s.removeForMigration(r, sc.idx, sc.tasks[:0])
		dest := p.Kernel.Step(r, &s.rands[r])
		sc.Moves = append(sc.Moves, Migration{Task: sc.tasks[0], Dest: int32(dest)})
	}
}
