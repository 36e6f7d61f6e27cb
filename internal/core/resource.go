package core

import (
	"sync"

	"repro/internal/walk"
)

// StepStats summarises one protocol round.
type StepStats struct {
	Migrations  int     // tasks that moved this round
	MovedWeight float64 // total weight of moved tasks
}

// Protocol advances the system by one synchronous round.
type Protocol interface {
	// Step executes one round, mutating s, and reports what moved.
	Step(s *State) StepStats
	// Name identifies the protocol in reports.
	Name() string
}

// ResourceControlled is Algorithm 5.1: every resource r with
// x_r(t) > T_r removes each task in Ia ∪ Ic (the tasks above or
// cutting the threshold) and reallocates it to a neighbour sampled
// from the random-walk kernel. Workers > 1 splits the propose phase
// across goroutines; results are identical to the sequential execution
// because each resource draws only from its own RNG stream.
type ResourceControlled struct {
	Kernel  walk.Kernel
	Workers int // 0 or 1 = sequential
}

// Name identifies the protocol.
func (p ResourceControlled) Name() string {
	return "resource-controlled(" + p.Kernel.Name() + ")"
}

// Step executes one synchronous round.
func (p ResourceControlled) Step(s *State) StepStats {
	return s.DeliverMigrations(stepPropose(p, s, p.Workers))
}

// ProposeRange implements RangeProposer: it scans resources [lo, hi),
// popping overflow from overloaded ones and sampling a destination per
// task from the source resource's own stream.
func (p ResourceControlled) ProposeRange(s *State, lo, hi int, sc *ProposeScratch) {
	for r := lo; r < hi; r++ {
		if !s.over[r] {
			continue
		}
		sc.tasks = s.popOverflow(r, sc.tasks[:0])
		rr := s.rands[r]
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

// Step executes one synchronous round.
func (p ResourceControlledSingle) Step(s *State) StepStats {
	return s.DeliverMigrations(stepPropose(p, s, 1))
}

// ProposeRange implements RangeProposer.
func (p ResourceControlledSingle) ProposeRange(s *State, lo, hi int, sc *ProposeScratch) {
	for r := lo; r < hi; r++ {
		if !s.over[r] {
			continue
		}
		sc.idx = append(sc.idx[:0], s.stacks[r].Len()-1)
		sc.tasks = s.removeForMigration(r, sc.idx, sc.tasks[:0])
		dest := p.Kernel.Step(r, s.rands[r])
		sc.Moves = append(sc.Moves, Migration{Task: sc.tasks[0], Dest: int32(dest)})
	}
}

// stepPropose collects a full propose phase for a standalone Step call
// — sequentially into the state's reusable scratch, or sharded across
// `workers` goroutines with private scratches. The concatenation order
// of the shard buffers does not matter: DeliverMigrations re-sorts into
// the canonical (dest, task ID) order before any delivery or
// accounting.
func stepPropose(p RangeProposer, s *State, workers int) []Migration {
	n := s.N()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := &s.propose
		sc.Moves = sc.Moves[:0]
		p.ProposeRange(s, 0, n, sc)
		return sc.Moves
	}
	scs := make([]ProposeScratch, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p.ProposeRange(s, lo, hi, &scs[w])
		}(w, lo, hi)
	}
	wg.Wait()
	var moves []Migration
	for _, sc := range scs {
		moves = append(moves, sc.Moves...)
	}
	return moves
}
