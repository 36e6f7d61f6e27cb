package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stack"
	"repro/internal/task"
)

// State is the full simulation state: one stack per resource, the
// threshold vector, the task→resource map, and one RNG stream per
// resource. Per-resource streams make every protocol step a
// deterministic function of (seed, initial placement) regardless of
// execution order, which is what lets the sharded open-system engine
// reproduce Step bit for bit at any worker count.
type State struct {
	g      *graph.Graph
	ts     *task.Set
	stacks []stack.Stack
	thr    []float64
	loc    []int32    // task ID -> resource
	rands  []rng.Rand // by value: take &s.rands[r], since a copy replays r's draws
	round  int

	// Incrementally maintained overload tracker: over[r] mirrors
	// Load(r) > thr[r] and overCount their population count, updated at
	// every load or threshold mutation so Balanced()/OverloadedCount()
	// are O(1) instead of O(n) per round. The counter is atomic because
	// sharded phases flip disjoint over[r] entries concurrently; integer
	// adds commute, so the barrier-time value is independent of
	// interleaving.
	over      []bool
	overCount atomic.Int64

	// Cached max weight over live tasks plus the number of live tasks
	// at exactly that weight; dirty only once the last task at the
	// maximum departs (open systems only — static runs never remove
	// tasks), which makes the O(live) rescan rare even for capped
	// weight distributions where many tasks share wmax.
	liveWMax      float64
	liveWMaxCount int
	liveWMaxDirty bool

	// Step's propose scratch and its one-shard delivery exchange, both
	// reused across rounds (the exchange is built at the first Step).
	propose ProposeScratch
	exch    *Exchange

	// In-flight ledger totals, maintained by the fault layer via
	// MarkInFlight/ClearInFlight: live tasks currently held off every
	// stack (loc == LocInFlight) because their migration message was
	// lost or delayed. Weight conservation holds over placed +
	// in-flight mass, which CheckInvariants verifies.
	inflightN int
	inflightW float64

	// CheckInvariants' per-task scratch, cleared at every call.
	seen []bool
}

// LocInFlight is the Location sentinel for a live task held by the
// message-fault layer: off every stack, waiting in the in-flight
// ledger or the delay wheel. (-1 marks departed or mid-delivery
// limbo, as before.)
const LocInFlight = -2

// NewState places the task set on g's resources according to placement
// (task ID → resource) and computes thresholds with policy. seed
// determines all randomness of the subsequent run.
func NewState(g *graph.Graph, ts *task.Set, placement []int, policy Thresholds, seed uint64) *State {
	n := g.N()
	if n == 0 {
		panic("core: graph has no resources")
	}
	if len(placement) != ts.M() {
		panic(fmt.Sprintf("core: placement has %d entries for %d tasks", len(placement), ts.M()))
	}
	s := &State{
		g:      g,
		ts:     ts,
		stacks: make([]stack.Stack, n),
		thr:    policy.Values(ts, n),
		loc:    make([]int32, ts.M()),
		rands:  make([]rng.Rand, n),
		over:   make([]bool, n),
	}
	if len(s.thr) != n {
		panic("core: threshold policy returned wrong length")
	}
	for id, res := range placement {
		if res < 0 || res >= n {
			panic(fmt.Sprintf("core: task %d placed on invalid resource %d", id, res))
		}
		s.stacks[res].Push(ts.Task(id))
		s.loc[id] = int32(res)
	}
	for r := range s.rands {
		s.rands[r] = *rng.Stream(seed, uint64(r))
	}
	s.recountOverloaded()
	s.liveWMax = ts.WMax()
	for _, tk := range ts.Tasks() {
		if tk.Weight == s.liveWMax {
			s.liveWMaxCount++
		}
	}
	return s
}

// recountOverloaded rebuilds the incremental overload tracker from
// scratch — O(n), used at construction and after wholesale threshold
// replacement.
func (s *State) recountOverloaded() {
	c := int64(0)
	for r := range s.stacks {
		o := s.stacks[r].Load() > s.thr[r]
		s.over[r] = o
		if o {
			c++
		}
	}
	s.overCount.Store(c)
}

// updateOverloaded refreshes resource r's entry in the overload
// tracker after a load mutation. Safe to call concurrently for
// distinct r.
func (s *State) updateOverloaded(r int) {
	now := s.stacks[r].Load() > s.thr[r]
	if now != s.over[r] {
		s.over[r] = now
		if now {
			s.overCount.Add(1)
		} else {
			s.overCount.Add(-1)
		}
	}
}

// Graph returns the resource graph.
func (s *State) Graph() *graph.Graph { return s.g }

// Tasks returns the task set.
func (s *State) Tasks() *task.Set { return s.ts }

// N returns the number of resources.
func (s *State) N() int { return len(s.stacks) }

// Round returns the number of completed protocol rounds.
func (s *State) Round() int { return s.round }

// Load returns x_r, the total weight on resource r.
func (s *State) Load(r int) float64 { return s.stacks[r].Load() }

// Count returns b_r, the number of tasks on resource r.
func (s *State) Count(r int) int { return s.stacks[r].Len() }

// Threshold returns T_r.
func (s *State) Threshold(r int) float64 { return s.thr[r] }

// Stack exposes resource r's stack (read-only use expected).
func (s *State) Stack(r int) *stack.Stack { return &s.stacks[r] }

// Location returns the resource currently holding task id.
func (s *State) Location(id int) int { return int(s.loc[id]) }

// Overloaded reports whether resource r exceeds its threshold.
func (s *State) Overloaded(r int) bool { return s.stacks[r].Load() > s.thr[r] }

// OverloadedCount returns the number of overloaded resources — O(1),
// maintained incrementally by every load and threshold mutation.
func (s *State) OverloadedCount() int { return int(s.overCount.Load()) }

// Balanced reports whether every load is at or below its threshold —
// the paper's termination condition. O(1).
func (s *State) Balanced() bool { return s.overCount.Load() == 0 }

// Rand returns resource r's private RNG stream. The open-system engine
// drives service and protocol draws for r from this one stream in a
// fixed per-round order, which is what keeps sharded execution
// bit-identical to sequential execution.
func (s *State) Rand(r int) *rng.Rand { return &s.rands[r] }

// Loads returns a fresh copy of the load vector — the input for the
// metrics package's imbalance measures.
func (s *State) Loads() []float64 {
	out := make([]float64, len(s.stacks))
	for r := range s.stacks {
		out[r] = s.stacks[r].Load()
	}
	return out
}

// MaxLoad returns the maximum resource load.
func (s *State) MaxLoad() float64 {
	m := 0.0
	for r := range s.stacks {
		if l := s.stacks[r].Load(); l > m {
			m = l
		}
	}
	return m
}

// Potential returns Φ(t) = Σ_r φ_r(t): the total weight of tasks that
// are cutting or above their resource's threshold (Eq. (1) for the
// tight analysis; Section 6's Φ for the user-controlled one).
func (s *State) Potential() float64 {
	p := 0.0
	for r := range s.stacks {
		p += s.stacks[r].OverflowWeight(s.thr[r])
	}
	return p
}

// ResourcePotential returns φ_r(t).
func (s *State) ResourcePotential(r int) float64 {
	return s.stacks[r].OverflowWeight(s.thr[r])
}

// AcceptFraction returns the fraction of resources that could accept an
// extra task of weight wmax — the quantity Lemma 1 lower-bounds by
// ε/(1+ε) for above-average thresholds.
func (s *State) AcceptFraction() float64 {
	wmax := s.ts.WMax()
	c := 0
	for r := range s.stacks {
		if s.stacks[r].Load() <= s.thr[r]-wmax {
			c++
		}
	}
	return float64(c) / float64(len(s.stacks))
}

// MarkInFlight records that live task t was pulled off the migration
// path by the fault layer: its location becomes LocInFlight and its
// weight moves from placed to in-flight mass. Sequential use only.
func (s *State) MarkInFlight(t task.Task) {
	s.loc[t.ID] = LocInFlight
	s.inflightN++
	s.inflightW += t.Weight
}

// ClearInFlight releases task t from the in-flight ledger just before
// its (re-)delivery; the delivery itself rewrites the location.
func (s *State) ClearInFlight(t task.Task) {
	s.inflightN--
	s.inflightW -= t.Weight
	if s.inflightN == 0 {
		s.inflightW = 0 // shed float residue at the natural zero
	}
}

// InFlightLedger returns the count and total weight of live tasks
// currently held off-stack by the fault layer.
func (s *State) InFlightLedger() (int, float64) { return s.inflightN, s.inflightW }

// CheckInvariants validates global conservation: every task is on
// exactly one resource or accounted in-flight by the fault layer, the
// location map agrees with the stacks, loads equal summed weights,
// and placed + in-flight weight equals W.
func (s *State) CheckInvariants() error {
	seen := slices.Grow(s.seen[:0], s.ts.M())[:s.ts.M()]
	clear(seen)
	s.seen = seen
	total := 0.0
	for r := range s.stacks {
		if err := s.stacks[r].CheckInvariants(); err != nil {
			return fmt.Errorf("resource %d: %w", r, err)
		}
		for _, tk := range s.stacks[r].Tasks() {
			if tk.ID < 0 || tk.ID >= s.ts.M() {
				return fmt.Errorf("resource %d holds unknown task %d", r, tk.ID)
			}
			if s.ts.Removed(tk.ID) {
				return fmt.Errorf("resource %d holds departed task %d", r, tk.ID)
			}
			if seen[tk.ID] {
				return fmt.Errorf("task %d appears twice", tk.ID)
			}
			seen[tk.ID] = true
			if int(s.loc[tk.ID]) != r {
				return fmt.Errorf("task %d: location map says %d, stack says %d", tk.ID, s.loc[tk.ID], r)
			}
		}
		total += s.stacks[r].Load()
	}
	ledgerN, ledgerW := 0, 0.0
	for id, ok := range seen {
		if s.ts.Removed(id) {
			if s.loc[id] != -1 {
				return fmt.Errorf("departed task %d still mapped to resource %d", id, s.loc[id])
			}
			continue
		}
		if ok {
			continue
		}
		if s.loc[id] != LocInFlight {
			return fmt.Errorf("task %d lost", id)
		}
		// Held by the fault layer: off every stack, weight in flight.
		ledgerN++
		ledgerW += s.ts.Task(id).Weight
	}
	if ledgerN != s.inflightN {
		return fmt.Errorf("in-flight ledger count %d != recount %d", s.inflightN, ledgerN)
	}
	if math.Abs(ledgerW-s.inflightW) > 1e-6*(1+ledgerW) {
		return fmt.Errorf("in-flight ledger weight %v != recount %v", s.inflightW, ledgerW)
	}
	if math.Abs(total+ledgerW-s.ts.W()) > 1e-6*(1+s.ts.W()) {
		return fmt.Errorf("placed weight %v + in-flight %v != W %v", total, ledgerW, s.ts.W())
	}
	over := 0
	for r := range s.stacks {
		if s.over[r] != s.Overloaded(r) {
			return fmt.Errorf("overload tracker stale at resource %d: cached %v, actual %v",
				r, s.over[r], s.Overloaded(r))
		}
		if s.over[r] {
			over++
		}
	}
	if got := s.overCount.Load(); got != int64(over) {
		return fmt.Errorf("overloaded counter %d != recount %d", got, over)
	}
	return nil
}

// Migration is one task move decided in the propose phase of a round.
type Migration struct {
	Task task.Task
	Dest int32
}

// ProposeScratch holds one shard's reusable propose-phase buffers.
// Each concurrent ProposeRange call needs its own scratch; the zero
// value is ready for use and the buffers grow to a steady size after
// the first few rounds, keeping the hot path allocation-free.
type ProposeScratch struct {
	// Moves accumulates the shard's proposed migrations. Callers reset
	// it (Moves = Moves[:0]) between rounds and route it into an
	// Exchange.
	Moves []Migration

	idx   []int       // per-resource index scratch (user-controlled coin flips)
	tasks []task.Task // per-resource removed-task scratch
}

// Step executes one synchronous round of p, the paper's round: it
// settles the live-wmax cache, proposes over every resource into the
// state's scratch, and delivers the moves as a one-shard Exchange
// batch — the open-system engine's propose and delivery code on a
// single shard. It advances the round counter and reports what moved.
func (s *State) Step(p Protocol) StepStats {
	s.LiveWMax()
	sc := &s.propose
	sc.Moves = sc.Moves[:0]
	p.ProposeRange(s, 0, len(s.stacks), sc)
	if s.exch == nil {
		s.exch = NewExchange([]int{0, len(s.stacks)})
	}
	s.exch.Route(0, sc.Moves)
	s.exch.DeliverShard(s, 0)
	return s.exch.Finish(s, true)
}

// radixCutoff is the batch length from which sortMigrations switches
// from insertion sort to the radix sort. A steady open-system round
// delivers ~13 moves, far below it; the paper's static runs deliver
// batches of hundreds to thousands of moves, far above it.
const radixCutoff = 64

// sortMigrations orders moves by (dest, task ID), stably (equal keys
// keep their input order): insertion sort in place below radixCutoff,
// radixSortMigrations through the caller's scratch buf
// (len(buf) ≥ len(moves)) from there on. Destinations and task IDs
// must be non-negative.
func sortMigrations(moves, buf []Migration) {
	if len(moves) >= radixCutoff {
		radixSortMigrations(moves, buf)
		return
	}
	for i := 1; i < len(moves); i++ {
		mv := moves[i]
		j := i - 1
		for j >= 0 && migrationLess(mv, moves[j]) {
			moves[j+1] = moves[j]
			j--
		}
		moves[j+1] = mv
	}
}

// radixSortMigrations is a least-significant-digit radix sort on the
// key dest<<idBits | taskID, packed over only the batch's significant
// bits: one stable counting pass per 8-bit digit, alternating between
// moves and buf, so it runs in O(k) per digit with no comparisons and
// no allocation. It is a function of its own so that the short batches
// of the open-system rounds do not pay for its 2 KiB digit histogram
// in their stack frame.
func radixSortMigrations(moves, buf []Migration) {
	var maxDest int32
	maxID := 0
	for _, mv := range moves {
		maxDest = max(maxDest, mv.Dest)
		maxID = max(maxID, mv.Task.ID)
	}
	idBits := uint(bits.Len(uint(maxID)))
	keyBits := idBits + uint(bits.Len32(uint32(maxDest)))
	src, dst := moves, buf[:len(moves)]
	for shift := uint(0); shift < keyBits; shift += 8 {
		var next [256]int
		for _, mv := range src {
			next[migrationKey(mv, idBits)>>shift&0xff]++
		}
		at := 0
		for d := range next {
			next[d], at = at, at+next[d]
		}
		for _, mv := range src {
			d := migrationKey(mv, idBits) >> shift & 0xff
			dst[next[d]] = mv
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &moves[0] {
		copy(moves, src)
	}
}

// migrationKey packs a move's (dest, task ID) sort key with the ID in
// the low idBits bits.
func migrationKey(mv Migration, idBits uint) uint64 {
	return uint64(mv.Dest)<<idBits | uint64(mv.Task.ID)
}

func migrationLess(a, b Migration) bool {
	if a.Dest != b.Dest {
		return a.Dest < b.Dest
	}
	return a.Task.ID < b.Task.ID
}

// popOverflow removes every cutting-or-above task of resource r into
// dst, maintaining the overload tracker — the resource-controlled
// removal step, shard-safe for disjoint r.
func (s *State) popOverflow(r int, dst []task.Task) []task.Task {
	dst = s.stacks[r].PopOverflowAppend(s.thr[r], dst)
	s.updateOverloaded(r)
	return dst
}

// removeForMigration removes the tasks at the given strictly
// increasing stack positions of resource r into dst — the
// user-controlled removal step. The tasks stay live (they are in
// flight to a destination); locations are rewritten at delivery.
// Shard-safe for disjoint r.
func (s *State) removeForMigration(r int, indices []int, dst []task.Task) []task.Task {
	dst = s.stacks[r].RemoveIndicesAppend(indices, dst)
	s.updateOverloaded(r)
	return dst
}
