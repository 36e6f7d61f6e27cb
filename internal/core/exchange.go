package core

// The per-destination-shard delivery exchange. Sharded phases (the
// protocols' propose sweep, the dynamic engine's churn evacuation)
// produce task moves whose destinations are scattered across the whole
// resource range, so applying them used to funnel through one
// sequential sort-and-push barrier — the last O(moves) sequential
// section of a round. The Exchange removes it:
//
//  1. Route (parallel over SOURCE shards): each source shard sorts its
//     own move buffer once by the canonical (destination, task ID) key
//     and cuts it into per-destination-shard lanes. Because shards are
//     contiguous resource ranges, a sorted buffer segments into lanes
//     with a single linear scan — no copying, the lanes are subslices.
//  2. DeliverShard (parallel over DESTINATION shards): each destination
//     shard k-way-merges its inbound lanes — one sorted lane per source
//     shard — and applies the moves to its own resources in merged
//     order. Delivery is O(moves/shard · workers) parallel work instead
//     of O(moves log moves) sequential.
//  3. Finish (sequential, O(destinations touched)): folds the per-shard
//     statistics in canonical order and optionally advances the round.
//
// Determinism contract. The merge key (destination, task ID) is unique
// per batch, so every destination resource receives its tasks in
// ascending task-ID order regardless of which source shard proposed
// them or how the resource range is partitioned. Floating-point
// statistics are made partition-invariant by the same trick the engine
// uses for departures: MovedWeight is accumulated as one partial sum
// per destination resource (in merge order, which is task-ID order) and
// the partials are folded in ascending resource order at Finish. Both
// the per-resource partials and the fold order are independent of the
// shard boundaries, so the result is bit-identical for every worker
// count and every (measured-cost) boundary placement — including the
// one-shard batch that State.Step delivers a static round through.
//
// The Exchange is allocation-free once warm: lane cuts, merge cursors
// and partial-sum buffers are reused across batches, and Route borrows
// the caller's move buffer instead of copying it.

// exSource is one source shard's outbound state for the current batch.
type exSource struct {
	moves []Migration // borrowed from the caller, sorted by (dest, task ID)
	cuts  []int       // len(bounds): moves[cuts[j]:cuts[j+1]] targets dest shard j
	sort  []Migration // radix-sort scratch, grown on demand
}

// exDest is one destination shard's inbound state for the current batch.
type exDest struct {
	heads    []int     // merge cursor per source lane
	partials []float64 // MovedWeight partial per destination resource, ascending
	count    int       // moves delivered into this shard
}

// Exchange is the reusable cross-shard move-delivery fabric for one
// State. Construct with NewExchange; one batch is
//
//	Route(i, moves)   for every source shard i   (parallel)
//	DeliverShard(s,j) for every dest shard j     (parallel, after a barrier)
//	Finish(s, advanceRound)                      (sequential)
//
// Route and DeliverShard are safe to call concurrently for distinct
// shard indices; the caller provides the barrier between the two
// phases. Every source shard must Route exactly once per batch, even
// with an empty move buffer.
type Exchange struct {
	bounds []int // shard boundaries: shard j owns resources [bounds[j], bounds[j+1])
	srcs   []exSource
	dsts   []exDest

	// Optional backpressure telemetry: lanes[i*w+j] accumulates the
	// moves source shard i routed into destination shard j's lane,
	// recorded at Route time — before the destination merge runs — so a
	// skewed migration pattern (everything targeting one shard) is
	// visible before it serialises the merge. Row i is written only by
	// source shard i's Route call, so concurrent Routes stay race-free.
	lanes []int64 // nil until EnableLaneStats
}

// NewExchange builds an exchange over the given shard boundaries
// (len = shards+1, ascending, bounds[0] = 0, bounds[last] = n). The
// boundaries are copied; move them later with SetBounds.
func NewExchange(bounds []int) *Exchange {
	w := len(bounds) - 1
	if w < 1 {
		panic("core: NewExchange needs at least one shard")
	}
	x := &Exchange{
		bounds: append([]int(nil), bounds...),
		srcs:   make([]exSource, w),
		dsts:   make([]exDest, w),
	}
	for i := range x.srcs {
		x.srcs[i].cuts = make([]int, w+1)
	}
	for j := range x.dsts {
		x.dsts[j].heads = make([]int, w)
	}
	return x
}

// Workers returns the number of shards the exchange was built for.
func (x *Exchange) Workers() int { return len(x.srcs) }

// Bounds returns the current shard boundaries (read-only use expected).
func (x *Exchange) Bounds() []int { return x.bounds }

// SetBounds replaces the shard boundaries — the measured-cost
// rebalancing hook. The shard count must not change, and no batch may
// be in flight. Results are unaffected by boundary placement (see the
// determinism contract above); only the work split moves.
func (x *Exchange) SetBounds(bounds []int) {
	if len(bounds) != len(x.bounds) {
		panic("core: SetBounds must keep the shard count")
	}
	copy(x.bounds, bounds)
}

// Route ingests source shard i's moves for the current batch: it sorts
// them in place by (destination, task ID) and segments the sorted
// buffer into one lane per destination shard. The buffer is borrowed
// until Finish — callers must not touch it in between. Safe to call
// concurrently for distinct i.
func (x *Exchange) Route(i int, moves []Migration) {
	src := &x.srcs[i]
	if len(moves) > len(src.sort) {
		src.sort = make([]Migration, len(moves))
	}
	sortMigrations(moves, src.sort)
	src.moves = moves
	idx := 0
	src.cuts[0] = 0
	last := len(x.bounds) - 1
	for j := 1; j < last; j++ {
		b := int32(x.bounds[j])
		for idx < len(moves) && moves[idx].Dest < b {
			idx++
		}
		src.cuts[j] = idx
	}
	src.cuts[last] = len(moves) // every destination lies below bounds[last] = n
	if x.lanes != nil {
		w := len(x.srcs)
		for j := 0; j < w; j++ {
			x.lanes[i*w+j] += int64(src.cuts[j+1] - src.cuts[j])
		}
	}
}

// EnableLaneStats turns on per-lane move counting (see LaneCounts).
// Call before the first batch; counting costs one add per lane per
// Route call.
func (x *Exchange) EnableLaneStats() {
	if x.lanes == nil {
		w := len(x.srcs)
		x.lanes = make([]int64, w*w)
	}
}

// LaneCounts returns the accumulated per-lane move counts since the
// last reset, as a row-major workers×workers matrix: entry [i*w+j] is
// the number of moves source shard i routed to destination shard j.
// Nil unless EnableLaneStats was called; the slice is owned by the
// exchange (read-only use expected, reset with ResetLaneCounts).
func (x *Exchange) LaneCounts() []int64 { return x.lanes }

// ResetLaneCounts zeroes the accumulated lane counters.
func (x *Exchange) ResetLaneCounts() {
	for i := range x.lanes {
		x.lanes[i] = 0
	}
}

// DeliverShard merges destination shard j's inbound lanes — already
// (dest, task ID)-sorted per lane — and applies the moves to s: stack
// push, location update, overload tracking, per-resource MovedWeight
// partials. Each merge step takes the lane with the smallest head;
// once only one lane is left, the rest of it is applied as one run, so
// a one-shard batch is a single pass over its sorted moves. It touches
// only shard j's resources (plus the delivered tasks' location
// entries, each owned by exactly one move), so it is safe to run
// concurrently for distinct j once every Route call has completed.
func (x *Exchange) DeliverShard(s *State, j int) {
	d := &x.dsts[j]
	d.count = 0
	d.partials = d.partials[:0]
	w := len(x.srcs)
	live := 0
	for i := 0; i < w; i++ {
		d.heads[i] = x.srcs[i].cuts[j]
		if d.heads[i] < x.srcs[i].cuts[j+1] {
			live++
		}
	}
	curDest := int32(-1)
	sum := 0.0
	for live > 0 {
		best := -1
		var bm Migration
		for i := 0; i < w; i++ {
			h := d.heads[i]
			if h >= x.srcs[i].cuts[j+1] {
				continue
			}
			if mv := x.srcs[i].moves[h]; best < 0 || migrationLess(mv, bm) {
				best, bm = i, mv
			}
		}
		lo, end := d.heads[best], d.heads[best]+1
		if live == 1 {
			end = x.srcs[best].cuts[j+1]
		}
		d.heads[best] = end
		if end == x.srcs[best].cuts[j+1] {
			live--
		}
		for _, mv := range x.srcs[best].moves[lo:end] {
			if mv.Dest != curDest {
				if curDest >= 0 {
					d.partials = append(d.partials, sum)
					s.updateOverloaded(int(curDest))
				}
				curDest, sum = mv.Dest, 0
			}
			sum += mv.Task.Weight
			s.stacks[mv.Dest].Push(mv.Task)
			s.loc[mv.Task.ID] = mv.Dest
		}
		d.count += end - lo
	}
	if curDest >= 0 {
		d.partials = append(d.partials, sum)
		s.updateOverloaded(int(curDest))
	}
}

// Delivered returns the number of moves the most recent batch merged
// into destination shard j — the post-merge counterpart of the
// Route-time lane counts. Valid between Finish and the next batch's
// DeliverShard calls.
func (x *Exchange) Delivered(j int) int { return x.dsts[j].count }

// Finish closes the batch: it folds the per-shard statistics in
// canonical order — destination shards ascending, and within each shard
// the per-resource partials ascending, which concatenates to one global
// ascending-resource fold independent of the shard boundaries —
// releases the borrowed move buffers, and (for a protocol round)
// advances the round counter.
func (x *Exchange) Finish(s *State, advanceRound bool) StepStats {
	var st StepStats
	for j := range x.dsts {
		d := &x.dsts[j]
		st.Migrations += d.count
		for _, p := range d.partials {
			st.MovedWeight += p
		}
	}
	for i := range x.srcs {
		x.srcs[i].moves = nil
	}
	if advanceRound {
		s.round++
	}
	return st
}
