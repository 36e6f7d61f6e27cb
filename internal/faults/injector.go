package faults

import (
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/task"
)

// Draw salts: each randomised decision kind gets its own keyed stream
// so the loss, delay and duplication draws of one message are
// independent.
const (
	saltLoss = iota + 1
	saltDelay
	saltDelayK
	saltDup
	saltDupK
	saltRetry
)

// Membership is the up-set view the injector needs at retry time (a
// retry to a resource that has since left the system fails without
// consuming a loss draw). *dynamic.UpSet satisfies it.
type Membership interface{ Contains(r int) bool }

// Counters are the injector's cumulative fault totals.
type Counters struct {
	Lost             int64 // messages lost on first send (entered the ledger)
	Delayed          int64 // messages parked in the delay wheel
	Duplicated       int64 // duplicate copies spawned
	Deduped          int64 // duplicate copies dropped by the dedup table
	Retries          int64 // retry attempts made from the ledger
	Timeouts         int64 // ledger tasks that gave up and re-homed at their source
	PartitionBlocked int64 // messages bounced at a partition cut
}

// flight is one ledger entry: a lost migration awaiting retry.
type flight struct {
	tk       task.Task
	src      int32 // source resource (re-home target on timeout)
	dest     int32
	attempt  int32 // retries already made
	nextTry  int32 // round of the next retry attempt
	deadline int32 // round at which the task re-homes at src
	token    uint64
}

// wheelRec is one delay-wheel entry: a migration (or duplicate copy)
// due to arrive at round `due`. Duplicates carry token 0, which never
// matches an armed dedup slot, so every copy is identified and
// dropped on arrival.
type wheelRec struct {
	tk    task.Task
	src   int32 // source resource at park time (trace-record provenance)
	dest  int32
	due   int32
	sent  int32  // round the message entered the wheel (delivery latency base)
	token uint64 // 0 = duplicate copy
}

// HookKind names the sequential fault events the trace hook observes:
// a first-send loss entering the retry ledger, a message parked in the
// delay wheel, and each retry attempt made from the ledger.
type HookKind uint8

const (
	HookLoss HookKind = iota + 1
	HookDelay
	HookRetry
)

// DueKind tags one entry of Tick's due-delivery batch with how it
// resolved: a delay-wheel delivery, a successful retry, or a timeout
// re-home at the source.
type DueKind uint8

const (
	DueDelay DueKind = iota + 1
	DueRetry
	DueTimeout
)

// DueRecord is the per-delivery annotation aligned index-for-index
// with the batch Tick returns: how the message resolved, how many
// rounds it was held, and how many retry attempts it took.
type DueRecord struct {
	Kind DueKind
	// Src is the move's source resource when it entered the fault layer
	// (a task in flight has no stack location to read back).
	Src     int32
	Latency int32
	Attempt int32
}

// shardScratch buffers one propose shard's fault decisions until the
// sequential Collect merges them in canonical (shard-ascending) order.
type shardScratch struct {
	lost    []flight
	delayed []wheelRec
	dup     []wheelRec
	blocked int64
}

// Injector applies a compiled Plan to the engine's migration traffic.
// FilterShard runs inside the parallel propose phase (disjoint shards,
// disjoint scratch); everything else is sequential engine-loop state.
type Injector struct {
	plan Plan
	seed uint64 // run seed mixed with the plan's fault seed
	n    int

	shards []shardScratch

	ledger []flight
	wheel  [][]wheelRec // ring, indexed by due % len(wheel)

	// pend is the dedup table: pend[id] holds the flight token of task
	// id's pending (lost or delayed) message, 0 when none. Tokens are
	// unique per flight, so a stale wheel entry for a recycled task ID
	// can never deliver.
	pend      []uint64
	nextToken uint64

	// Partition state: group[r] is 0 in the main component and w+1
	// inside active window w. isoBuf/restBuf are the reused delta
	// lists StartRound hands the engine for reachable-set upkeep.
	group      []int32
	oldGroup   []int32
	parted     bool // any window currently active
	isoBuf     []int
	restBuf    []int
	transition map[int]bool // rounds at which some window starts or ends

	due     []core.Migration // Tick's canonical due-delivery batch
	dueInfo []DueRecord      // aligned resolution annotations for due

	// hook, when set, observes the sequential fault events (Collect's
	// losses and delay parks, Tick's retry attempts) in canonical
	// order. Nil when tracing is off — the hot path pays nothing.
	hook func(kind HookKind, round int, tk task.Task, src, dest int32, attempt int32)

	c Counters
}

// SetTraceHook installs the sequential fault-event observer. The hook
// runs inside Collect and Tick — engine-loop context, never a propose
// shard — so observation order is canonical for any worker count.
func (inj *Injector) SetTraceHook(h func(kind HookKind, round int, tk task.Task, src, dest int32, attempt int32)) {
	inj.hook = h
}

// DueInfo returns the resolution annotations for the batch the last
// Tick returned, aligned index-for-index. Valid until the next Tick.
func (inj *Injector) DueInfo() []DueRecord { return inj.dueInfo }

// NewInjector compiles plan for an n-resource fleet split into
// `workers` propose shards. runSeed is the engine's master seed; the
// plan's own Seed decorrelates the fault draws from every other
// stream of the run.
func NewInjector(plan *Plan, n, workers int, runSeed uint64) *Injector {
	p := plan.withDefaults()
	inj := &Injector{
		plan:      p,
		seed:      rng.Hash3(runSeed, p.Seed, 0xfa17, 0),
		n:         n,
		shards:    make([]shardScratch, workers),
		nextToken: 1,
	}
	wheelLen := p.DelayMax + 1
	if p.DupProb > 0 && wheelLen < 2 {
		wheelLen = 2 // duplicate copies arrive at least 1 round late
	}
	inj.wheel = make([][]wheelRec, wheelLen)
	if len(p.Partitions) > 0 {
		inj.group = make([]int32, n)
		inj.oldGroup = make([]int32, n)
		inj.transition = make(map[int]bool, 2*len(p.Partitions))
		for _, w := range p.Partitions {
			inj.transition[w.Start] = true
			inj.transition[w.End] = true
		}
	}
	return inj
}

// Counters returns the cumulative fault totals.
func (inj *Injector) Counters() Counters { return inj.c }

// Isolated reports whether resource r is inside an active partition
// window this round.
func (inj *Injector) Isolated(r int) bool {
	return inj.parted && inj.group[r] != 0
}

// StartRound recomputes the partition groups for round t and returns
// the resources that became isolated and those whose window ended
// (reused buffers, valid until the next call). The engine applies the
// deltas to its reachable set before dispatching arrivals.
func (inj *Injector) StartRound(t int) (isolated, restored []int) {
	if inj.group == nil || !inj.transition[t] {
		return nil, nil
	}
	inj.group, inj.oldGroup = inj.oldGroup, inj.group
	clear(inj.group)
	inj.parted = false
	for wi, w := range inj.plan.Partitions {
		if w.Start <= t && t < w.End {
			inj.parted = true
			for _, m := range w.Members {
				inj.group[m] = int32(wi + 1)
			}
		}
	}
	inj.isoBuf, inj.restBuf = inj.isoBuf[:0], inj.restBuf[:0]
	for r := 0; r < inj.n; r++ {
		switch {
		case inj.oldGroup[r] == 0 && inj.group[r] != 0:
			inj.isoBuf = append(inj.isoBuf, r)
		case inj.oldGroup[r] != 0 && inj.group[r] == 0:
			inj.restBuf = append(inj.restBuf, r)
		}
	}
	return inj.isoBuf, inj.restBuf
}

// FilterShard applies round t's fault draws to shard i's proposed
// moves and returns the compacted survivors for routing. Lost and
// delayed moves land in the shard's scratch (merged sequentially by
// Collect); cross-partition moves bounce back to their source, the
// domain-local fallback. Safe for concurrent calls on distinct i.
// Tasks are already off their source stacks, but their locations
// still point at the source until delivery — that is where src comes
// from.
func (inj *Injector) FilterShard(i, t int, s *core.State, moves []core.Migration) []core.Migration {
	p := &inj.plan
	if !inj.parted && p.Loss == 0 && p.DelayProb == 0 && p.DupProb == 0 {
		return moves
	}
	sc := &inj.shards[i]
	kept := moves[:0]
	for _, mv := range moves {
		id := uint64(mv.Task.ID)
		src := int32(s.Location(int(mv.Task.ID)))
		if inj.parted && inj.group[src] != inj.group[mv.Dest] {
			// Fail fast at the cut: the move stays in its own
			// component by returning to its source.
			mv.Dest = src
			sc.blocked++
			kept = append(kept, mv)
			continue
		}
		if p.Loss > 0 && rng.HashFloat3(inj.seed+saltLoss, id, uint64(t), 0) < p.Loss {
			sc.lost = append(sc.lost, flight{tk: mv.Task, src: src, dest: mv.Dest})
			continue
		}
		if p.DelayProb > 0 && rng.HashFloat3(inj.seed+saltDelay, id, uint64(t), 0) < p.DelayProb {
			k := 1 + int32(rng.Hash3(inj.seed+saltDelayK, id, uint64(t), 0)%uint64(p.DelayMax))
			sc.delayed = append(sc.delayed, wheelRec{tk: mv.Task, src: src, dest: mv.Dest, due: int32(t) + k, sent: int32(t)})
			continue
		}
		if p.DupProb > 0 && rng.HashFloat3(inj.seed+saltDup, id, uint64(t), 0) < p.DupProb {
			// The original delivers now; a copy arrives late and the
			// dedup table drops it.
			dmax := uint64(len(inj.wheel) - 1)
			k := 1 + int32(rng.Hash3(inj.seed+saltDupK, id, uint64(t), 0)%dmax)
			sc.dup = append(sc.dup, wheelRec{tk: mv.Task, src: src, dest: mv.Dest, due: int32(t) + k})
		}
		kept = append(kept, mv)
	}
	return kept
}

// Collect merges the shard scratches into the ledger and delay wheel
// and marks the held tasks in flight. The merge is kind-major (every
// shard's lost list, then every delayed list, then the duplicates),
// each kind in shard-ascending order: contiguous shard chunks of the
// canonical propose batch then yield one global order per kind for
// any worker count, keeping token assignment and the in-flight
// weight-accumulation order — a float sum — bit-identical across
// worker counts. Sequential, after the deliver barrier.
func (inj *Injector) Collect(t int, s *core.State) {
	p := &inj.plan
	for i := range inj.shards {
		sc := &inj.shards[i]
		inj.c.PartitionBlocked += sc.blocked
		sc.blocked = 0
		for _, fl := range sc.lost {
			fl.attempt = 0
			fl.nextTry = int32(t + p.RetryBase)
			fl.deadline = int32(t + p.Timeout)
			fl.token = inj.nextToken
			inj.nextToken++
			inj.arm(fl.tk.ID, fl.token)
			s.MarkInFlight(fl.tk)
			inj.ledger = append(inj.ledger, fl)
			inj.c.Lost++
			if inj.hook != nil {
				inj.hook(HookLoss, t, fl.tk, fl.src, fl.dest, 0)
			}
		}
		sc.lost = sc.lost[:0]
	}
	for i := range inj.shards {
		sc := &inj.shards[i]
		for _, wr := range sc.delayed {
			wr.token = inj.nextToken
			inj.nextToken++
			inj.arm(wr.tk.ID, wr.token)
			s.MarkInFlight(wr.tk)
			slot := int(wr.due) % len(inj.wheel)
			inj.wheel[slot] = append(inj.wheel[slot], wr)
			inj.c.Delayed++
			if inj.hook != nil {
				inj.hook(HookDelay, t, wr.tk, wr.src, wr.dest, 0)
			}
		}
		sc.delayed = sc.delayed[:0]
	}
	for i := range inj.shards {
		sc := &inj.shards[i]
		for _, wr := range sc.dup {
			slot := int(wr.due) % len(inj.wheel)
			inj.wheel[slot] = append(inj.wheel[slot], wr)
			inj.c.Duplicated++
		}
		sc.dup = sc.dup[:0]
	}
}

// arm records task id's pending flight token in the dedup table,
// growing it as the task-ID space grows.
func (inj *Injector) arm(id int, token uint64) {
	for id >= len(inj.pend) {
		inj.pend = append(inj.pend, 0)
	}
	inj.pend[id] = token
}

// Tick processes round t's due deliveries — the delay-wheel slot,
// ledger retries and timeouts — and returns the canonical due-move
// batch for an extra exchange delivery. up guards retries against
// destinations that have since left the system (the attempt fails
// and backs off without a loss draw). The returned slice is reused
// across rounds. Sequential, after Collect.
func (inj *Injector) Tick(t int, s *core.State, up Membership) []core.Migration {
	inj.due = inj.due[:0]
	inj.dueInfo = inj.dueInfo[:0]
	if len(inj.wheel) > 0 {
		slot := int(uint(t) % uint(len(inj.wheel)))
		pending := inj.wheel[slot][:0]
		for _, wr := range inj.wheel[slot] {
			if int(wr.due) != t {
				pending = append(pending, wr) // lapped entry, not due yet
				continue
			}
			if wr.token == 0 || wr.token != inj.pendToken(wr.tk.ID) {
				inj.c.Deduped++ // duplicate (or superseded) copy
				continue
			}
			inj.pend[wr.tk.ID] = 0
			s.ClearInFlight(wr.tk)
			inj.due = append(inj.due, core.Migration{Task: wr.tk, Dest: wr.dest})
			inj.dueInfo = append(inj.dueInfo, DueRecord{Kind: DueDelay, Src: wr.src, Latency: int32(t) - wr.sent})
		}
		inj.wheel[slot] = pending
	}
	live := inj.ledger[:0]
	for _, fl := range inj.ledger {
		switch {
		case t >= int(fl.deadline):
			// Give up: the task re-homes at its source. If the source
			// has since gone down, the engine's bounce step evacuates
			// it through the configured re-home policy.
			inj.pend[fl.tk.ID] = 0
			s.ClearInFlight(fl.tk)
			inj.due = append(inj.due, core.Migration{Task: fl.tk, Dest: fl.src})
			inj.dueInfo = append(inj.dueInfo, DueRecord{Kind: DueTimeout, Src: fl.src, Latency: int32(t) - (fl.deadline - int32(inj.plan.Timeout)), Attempt: fl.attempt})
			inj.c.Timeouts++
		case t >= int(fl.nextTry):
			inj.c.Retries++
			fl.attempt++
			if inj.hook != nil {
				inj.hook(HookRetry, t, fl.tk, fl.src, fl.dest, fl.attempt)
			}
			destUp := up == nil || up.Contains(int(fl.dest))
			if destUp && (inj.parted && inj.group[fl.src] != inj.group[fl.dest]) {
				destUp = false // the cut now crosses this link
			}
			if destUp && rng.HashFloat3(inj.seed+saltRetry, uint64(fl.tk.ID), uint64(t), uint64(fl.attempt)) >= inj.plan.Loss {
				inj.pend[fl.tk.ID] = 0
				s.ClearInFlight(fl.tk)
				inj.due = append(inj.due, core.Migration{Task: fl.tk, Dest: fl.dest})
				inj.dueInfo = append(inj.dueInfo, DueRecord{Kind: DueRetry, Src: fl.src, Latency: int32(t) - (fl.deadline - int32(inj.plan.Timeout)), Attempt: fl.attempt})
				break
			}
			// Lost again (or the destination is unreachable): back off
			// exponentially, capped.
			gap := inj.plan.RetryBase << uint(fl.attempt)
			if gap > inj.plan.RetryCap {
				gap = inj.plan.RetryCap
			}
			fl.nextTry = int32(t + gap)
			live = append(live, fl)
		default:
			live = append(live, fl)
		}
	}
	inj.ledger = live
	return inj.due
}

// pendToken returns task id's armed flight token (0 = none).
func (inj *Injector) pendToken(id int) uint64 {
	if id < 0 || id >= len(inj.pend) {
		return 0
	}
	return inj.pend[id]
}
