package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/task"
)

// deliverReference is the sequential delivery that completed every
// static round before State.Step delivered through a one-shard
// Exchange (State.DeliverMigrations), kept verbatim apart from sorting
// through a local buffer instead of the state's: the exchange must
// reproduce its stacks, locations, overload tracker and statistics for
// every partition and every split of the moves over source shards.
func deliverReference(s *State, moves []Migration) StepStats {
	sortMigrations(moves, make([]Migration, len(moves)))
	stats := StepStats{Migrations: len(moves)}
	curDest := int32(-1)
	run := 0.0
	for _, mv := range moves {
		if mv.Dest != curDest {
			if curDest >= 0 {
				stats.MovedWeight += run
				s.updateOverloaded(int(curDest))
			}
			curDest, run = mv.Dest, 0
		}
		run += mv.Task.Weight
		s.stacks[mv.Dest].Push(mv.Task)
		s.loc[mv.Task.ID] = mv.Dest
	}
	if curDest >= 0 {
		stats.MovedWeight += run
		s.updateOverloaded(int(curDest))
	}
	s.round++
	return stats
}

// exchangeState builds a state with a clumped cross-shard move set:
// tasks pulled off several source resources with destinations spread
// over the whole range so every shard both sends and receives.
func exchangeState(t *testing.T) (*State, []Migration) {
	t.Helper()
	r := rng.NewSeeded(123)
	g := graph.Complete(24)
	ws := make([]float64, 300)
	for i := range ws {
		ws[i] = 1 + 9*r.Float64()
	}
	ts := task.NewSet(ws)
	placement := make([]int, len(ws))
	for i := range placement {
		placement[i] = i % 3 // pile everything on resources 0..2
	}
	s := NewState(g, ts, placement, AboveAverage{Eps: 0.5}, 7)
	var moves []Migration
	for src := 0; src < 3; src++ {
		idx := make([]int, 0, 60)
		for i := 0; i < 60; i++ {
			idx = append(idx, i)
		}
		for _, tk := range s.removeForMigration(src, idx, nil) {
			moves = append(moves, Migration{Task: tk, Dest: int32((tk.ID * 7) % 24)})
		}
	}
	return s, moves
}

type exchangeOutcome struct {
	stats StepStats
	round int
	loads []float64
	order [][]int
	locs  []int
}

func captureOutcome(s *State, st StepStats) exchangeOutcome {
	o := exchangeOutcome{stats: st, round: s.Round(), loads: s.Loads()}
	for r := 0; r < s.N(); r++ {
		var ids []int
		for _, tk := range s.Stack(r).Tasks() {
			ids = append(ids, tk.ID)
		}
		o.order = append(o.order, ids)
	}
	for id := 0; id < s.Tasks().M(); id++ {
		o.locs = append(o.locs, s.Location(id))
	}
	return o
}

// TestExchangeMatchesDeliverMigrations is the core equivalence check:
// for every shard-boundary layout (including uneven, measured-cost
// style cuts) and every way the moves are scattered over source
// shards, the exchange must reproduce the sequential deliverReference
// outcome exactly — stacks, locations, round counter, and the float
// rounding of MovedWeight.
func TestExchangeMatchesDeliverMigrations(t *testing.T) {
	s, moves := exchangeState(t)
	ref := captureOutcome(s, deliverReference(s, append([]Migration(nil), moves...)))
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("reference state: %v", err)
	}

	layouts := [][]int{
		{0, 24},                       // one shard: the sequential degenerate case
		{0, 12, 24},                   // even split
		{0, 6, 12, 18, 24},            // four even shards
		{0, 1, 3, 20, 24},             // heavily skewed (measured-cost style) cuts
		{0, 5, 9, 14, 17, 21, 23, 24}, // seven uneven shards
	}
	r := rng.NewSeeded(5)
	for _, bounds := range layouts {
		w := len(bounds) - 1
		s2, moves2 := exchangeState(t)
		x := NewExchange(bounds)
		// Scatter the moves over source shards at random: which worker
		// proposed a move must not matter.
		lanes := make([][]Migration, w)
		for _, mv := range moves2 {
			i := r.Intn(w)
			lanes[i] = append(lanes[i], mv)
		}
		for i := 0; i < w; i++ {
			x.Route(i, lanes[i])
		}
		for j := 0; j < w; j++ {
			x.DeliverShard(s2, j)
		}
		got := captureOutcome(s2, x.Finish(s2, true))
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("bounds %v: exchange diverges from deliverReference:\ngot  %+v\nwant %+v", bounds, got, ref)
		}
		if err := s2.CheckInvariants(); err != nil {
			t.Fatalf("bounds %v: %v", bounds, err)
		}
	}
}

// TestExchangeEmptyBatchAndRoundAdvance pins the bookkeeping edges: an
// all-empty batch delivers nothing, Finish(advance=false) — the
// evacuation mode — leaves the round counter alone, and a reused
// exchange does not leak the previous batch.
func TestExchangeEmptyBatchAndRoundAdvance(t *testing.T) {
	s, moves := exchangeState(t)
	x := NewExchange([]int{0, 8, 16, 24})
	// Batch 1: real moves, no round advance (evacuation mode).
	x.Route(0, moves)
	x.Route(1, nil)
	x.Route(2, nil)
	for j := 0; j < 3; j++ {
		x.DeliverShard(s, j)
	}
	st := x.Finish(s, false)
	if st.Migrations != len(moves) {
		t.Fatalf("delivered %d of %d moves", st.Migrations, len(moves))
	}
	if s.Round() != 0 {
		t.Fatalf("Finish(advance=false) advanced the round to %d", s.Round())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Batch 2: empty everywhere, with a round advance.
	for i := 0; i < 3; i++ {
		x.Route(i, nil)
	}
	for j := 0; j < 3; j++ {
		x.DeliverShard(s, j)
	}
	st = x.Finish(s, true)
	if st.Migrations != 0 || st.MovedWeight != 0 {
		t.Fatalf("empty batch delivered %+v", st)
	}
	if s.Round() != 1 {
		t.Fatalf("round counter %d after one advancing batch", s.Round())
	}
}

// TestExchangeSetBounds moves the boundaries between batches and
// checks deliveries still land correctly — the rebalancing contract.
func TestExchangeSetBounds(t *testing.T) {
	s, moves := exchangeState(t)
	ref := captureOutcome(s, deliverReference(s, append([]Migration(nil), moves...)))

	s2, moves2 := exchangeState(t)
	x := NewExchange([]int{0, 8, 16, 24})
	x.SetBounds([]int{0, 2, 21, 24})
	x.Route(0, moves2)
	x.Route(1, nil)
	x.Route(2, nil)
	for j := 0; j < 3; j++ {
		x.DeliverShard(s2, j)
	}
	got := captureOutcome(s2, x.Finish(s2, true))
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("rebalanced bounds diverge:\ngot  %+v\nwant %+v", got, ref)
	}
}

// exchangeCase is one decoded FuzzExchange input: a partition of n
// resources into contiguous shards, the initial placement and weights
// of the tasks, and each task's destination (n = the task stays) and
// the source shard whose lane routes its move.
type exchangeCase struct {
	n       int
	bounds  []int
	place   []int
	weights []float64
	dest    []int
	lane    []int
}

// decodeExchangeCase turns fuzz bytes into a delivery case. data[0]
// picks n (1–24 resources) and data[1] the shard count (1–8); the next
// shards−1 bytes place the boundaries, each advancing by its byte
// modulo the resources left, so shards may be empty. Every following
// 4-byte record (up to 256) is one task: its resource, its destination
// (the value n keeps it in place), its weight 1 + b/7 and the source
// shard that routes its move. Task IDs are record positions, so they
// are unique, while destinations repeat freely.
func decodeExchangeCase(data []byte) (exchangeCase, bool) {
	if len(data) < 2 {
		return exchangeCase{}, false
	}
	c := exchangeCase{n: 1 + int(data[0])%24}
	w := 1 + int(data[1])%8
	data = data[2:]
	c.bounds = make([]int, w+1)
	c.bounds[w] = c.n
	for j := 1; j < w; j++ {
		var b byte
		if len(data) > 0 {
			b, data = data[0], data[1:]
		}
		c.bounds[j] = c.bounds[j-1] + int(b)%(c.n-c.bounds[j-1]+1)
	}
	for len(data) >= 4 && len(c.place) < 256 {
		c.place = append(c.place, int(data[0])%c.n)
		c.dest = append(c.dest, int(data[1])%(c.n+1))
		c.weights = append(c.weights, 1+float64(data[2])/7)
		c.lane = append(c.lane, int(data[3])%w)
		data = data[4:]
	}
	return c, len(c.place) > 0
}

// build places the case's tasks and pulls the moving ones off their
// stacks, returning the state and each source shard's lane of moves.
func (c exchangeCase) build() (*State, [][]Migration) {
	s := NewState(graph.Build("fuzz", c.n, nil), task.NewSet(c.weights), c.place,
		AboveAverage{Eps: 0.25}, 1)
	lanes := make([][]Migration, len(c.bounds)-1)
	for r := 0; r < c.n; r++ {
		var idx []int
		for i, tk := range s.Stack(r).Tasks() {
			if c.dest[tk.ID] < c.n {
				idx = append(idx, i)
			}
		}
		for _, tk := range s.removeForMigration(r, idx, nil) {
			lanes[c.lane[tk.ID]] = append(lanes[c.lane[tk.ID]],
				Migration{Task: tk, Dest: int32(c.dest[tk.ID])})
		}
	}
	return s, lanes
}

// FuzzExchange holds the one delivery path to the sequential reference:
// for any partition (empty shards included) and any split of a batch
// over the source shards, Route, DeliverShard and Finish must leave the
// same stacks, locations, loads, overload tracker and round counter as
// deliverReference, and report the same StepStats, MovedWeight's bits
// included.
func FuzzExchange(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeExchangeCase(data)
		if !ok {
			return
		}
		ref, refLanes := c.build()
		var all []Migration
		for _, lane := range refLanes {
			all = append(all, lane...)
		}
		want := deliverReference(ref, all)

		s, lanes := c.build()
		x := NewExchange(c.bounds)
		for i, lane := range lanes {
			x.Route(i, lane)
		}
		for j := range lanes {
			x.DeliverShard(s, j)
		}
		got := x.Finish(s, true)

		if got.Migrations != want.Migrations ||
			math.Float64bits(got.MovedWeight) != math.Float64bits(want.MovedWeight) {
			t.Fatalf("bounds %v: stats %+v, reference %+v", c.bounds, got, want)
		}
		if s.Round() != ref.Round() || s.OverloadedCount() != ref.OverloadedCount() {
			t.Fatalf("bounds %v: round %d, %d overloaded; reference round %d, %d overloaded",
				c.bounds, s.Round(), s.OverloadedCount(), ref.Round(), ref.OverloadedCount())
		}
		for r := 0; r < c.n; r++ {
			if !reflect.DeepEqual(s.Stack(r).Tasks(), ref.Stack(r).Tasks()) ||
				math.Float64bits(s.Load(r)) != math.Float64bits(ref.Load(r)) || s.over[r] != ref.over[r] {
				t.Fatalf("bounds %v: resource %d holds %v (load %v, over %v), reference %v (load %v, over %v)",
					c.bounds, r, s.Stack(r).Tasks(), s.Load(r), s.over[r],
					ref.Stack(r).Tasks(), ref.Load(r), ref.over[r])
			}
		}
		for id := range c.place {
			if s.Location(id) != ref.Location(id) {
				t.Fatalf("bounds %v: task %d on %d, reference %d", c.bounds, id, s.Location(id), ref.Location(id))
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("bounds %v: %v", c.bounds, err)
		}
	})
}
