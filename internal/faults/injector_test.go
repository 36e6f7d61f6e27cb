package faults

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/task"
)

// testState builds an n-resource complete graph holding m tasks, all
// placed at resource 0, plus a synthetic propose batch that spreads
// them across the other resources. The injector only reads locations
// and the in-flight counters, so the stacks can stay untouched.
func testState(n, m int) (*core.State, []core.Migration) {
	g := graph.Complete(n)
	ws := make([]float64, m)
	for i := range ws {
		ws[i] = 1 + float64(i%3)
	}
	ts := task.NewSet(ws)
	s := core.NewState(g, ts, make([]int, m), core.AboveAverage{Eps: 0.5}, 1)
	moves := make([]core.Migration, m)
	for i := 0; i < m; i++ {
		moves[i] = core.Migration{Task: ts.Task(i), Dest: int32(1 + i%(n-1))}
	}
	return s, moves
}

// The fault draws are keyed off (task, round, attempt), never off the
// shard split: any worker count must keep, lose, delay and duplicate
// exactly the same messages and assign the same flight tokens.
func TestInjectorWorkerInvariance(t *testing.T) {
	plan := &Plan{Loss: 0.3, DelayProb: 0.3, DelayMax: 3, DupProb: 0.2}
	type snapshot struct {
		kept   []core.Migration
		c      Counters
		ledger []flight
		pend   []uint64
		wheel  [][]wheelRec
		inN    int
		inW    float64
	}
	var ref *snapshot
	for _, workers := range []int{1, 2, 4, 8} {
		s, moves := testState(8, 64)
		inj := NewInjector(plan, 8, workers, 7)
		per := (len(moves) + workers - 1) / workers
		kept := []core.Migration{}
		for i := 0; i < workers; i++ {
			lo := min(i*per, len(moves))
			hi := min(lo+per, len(moves))
			chunk := append([]core.Migration(nil), moves[lo:hi]...)
			kept = append(kept, inj.FilterShard(i, 5, s, chunk)...)
		}
		inj.Collect(5, s)
		inN, inW := s.InFlightLedger()
		got := &snapshot{kept, inj.c, inj.ledger, inj.pend, inj.wheel, inN, inW}
		if ref == nil {
			ref = got
			if got.c.Lost == 0 || got.c.Delayed == 0 || got.c.Duplicated == 0 {
				t.Fatalf("weak exercise: counters %+v", got.c)
			}
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d diverges from workers=1:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}

func TestInjectorDelayedDelivery(t *testing.T) {
	plan := &Plan{DelayProb: 0.9, DelayMax: 3}
	s, moves := testState(8, 32)
	inj := NewInjector(plan, 8, 1, 3)
	dest := map[int]int32{}
	for _, mv := range moves {
		dest[mv.Task.ID] = mv.Dest
	}
	kept := inj.FilterShard(0, 10, s, moves)
	inj.Collect(10, s)
	if inj.c.Delayed == 0 {
		t.Fatal("no messages delayed at p=0.9")
	}
	delivered := map[int]int32{}
	for _, mv := range kept {
		delivered[mv.Task.ID] = mv.Dest
	}
	for r := 11; r <= 14; r++ {
		for _, mv := range inj.Tick(r, s, nil) {
			if _, dup := delivered[mv.Task.ID]; dup {
				t.Fatalf("task %d delivered twice", mv.Task.ID)
			}
			delivered[mv.Task.ID] = mv.Dest
		}
	}
	if len(delivered) != len(dest) {
		t.Fatalf("%d of %d messages delivered", len(delivered), len(dest))
	}
	for id, d := range delivered {
		if d != dest[id] {
			t.Fatalf("task %d delivered to %d, proposed %d", id, d, dest[id])
		}
	}
	if n, w := s.InFlightLedger(); n != 0 || w != 0 {
		t.Fatalf("in-flight residue: %d tasks, weight %v", n, w)
	}
}

func TestInjectorRetryAndTimeout(t *testing.T) {
	plan := &Plan{Loss: 0.6, RetryBase: 1, RetryCap: 4, Timeout: 6}
	s, moves := testState(8, 128)
	inj := NewInjector(plan, 8, 1, 5)
	src := int32(0) // every test task lives at resource 0
	dest := map[int]int32{}
	for _, mv := range moves {
		dest[mv.Task.ID] = mv.Dest
	}
	kept := inj.FilterShard(0, 0, s, moves)
	inj.Collect(0, s)
	if inj.c.Lost == 0 {
		t.Fatal("no messages lost at p=0.6")
	}
	if got := int64(len(moves) - len(kept)); got != inj.c.Lost {
		t.Fatalf("%d moves missing, %d counted lost", got, inj.c.Lost)
	}
	delivered, rehomed := map[int]int32{}, 0
	for r := 1; r <= 2*6; r++ {
		for _, mv := range inj.Tick(r, s, nil) {
			if _, dup := delivered[mv.Task.ID]; dup {
				t.Fatalf("task %d delivered twice", mv.Task.ID)
			}
			delivered[mv.Task.ID] = mv.Dest
			if mv.Dest == src {
				rehomed++
			}
		}
	}
	if len(inj.ledger) != 0 {
		t.Fatalf("%d flights still ledgered after the deadline", len(inj.ledger))
	}
	if int64(len(delivered)) != inj.c.Lost {
		t.Fatalf("%d lost, %d re-delivered", inj.c.Lost, len(delivered))
	}
	if int64(rehomed) != inj.c.Timeouts {
		t.Fatalf("%d re-homed at source, %d timeouts counted", rehomed, inj.c.Timeouts)
	}
	for id, d := range delivered {
		if d != dest[id] && d != src {
			t.Fatalf("task %d surfaced at %d (proposed %d)", id, d, dest[id])
		}
	}
	if n, w := s.InFlightLedger(); n != 0 || w != 0 {
		t.Fatalf("in-flight residue: %d tasks, weight %v", n, w)
	}
}

func TestInjectorDedupsDuplicates(t *testing.T) {
	plan := &Plan{DupProb: 0.9}
	s, moves := testState(8, 32)
	inj := NewInjector(plan, 8, 1, 9)
	kept := inj.FilterShard(0, 3, s, append([]core.Migration(nil), moves...))
	inj.Collect(3, s)
	if len(kept) != len(moves) {
		t.Fatalf("duplication dropped originals: kept %d of %d", len(kept), len(moves))
	}
	if inj.c.Duplicated == 0 {
		t.Fatal("no duplicates at p=0.9")
	}
	for r := 4; r <= 6; r++ {
		if due := inj.Tick(r, s, nil); len(due) != 0 {
			t.Fatalf("round %d: duplicate copies delivered: %v", r, due)
		}
	}
	if inj.c.Deduped != inj.c.Duplicated {
		t.Fatalf("%d duplicates, %d deduped", inj.c.Duplicated, inj.c.Deduped)
	}
}

func TestInjectorPartitionWindows(t *testing.T) {
	plan := &Plan{Partitions: []Partition{{Start: 2, End: 4, Members: []int{1, 2}}}}
	s, _ := testState(8, 4)
	inj := NewInjector(plan, 8, 1, 1)
	if iso, rest := inj.StartRound(0); len(iso) != 0 || len(rest) != 0 {
		t.Fatalf("deltas before the window: iso %v rest %v", iso, rest)
	}
	iso, rest := inj.StartRound(2)
	if !reflect.DeepEqual(iso, []int{1, 2}) || len(rest) != 0 {
		t.Fatalf("window open: iso %v rest %v", iso, rest)
	}
	if !inj.Isolated(1) || inj.Isolated(0) {
		t.Fatal("isolation flags wrong")
	}
	ts := s.Tasks()
	moves := []core.Migration{
		{Task: ts.Task(0), Dest: 1}, // crosses the cut → bounces to src 0
		{Task: ts.Task(1), Dest: 3}, // stays in the main component
	}
	got := inj.FilterShard(0, 2, s, moves)
	if len(got) != 2 || got[0].Dest != 0 || got[1].Dest != 3 {
		t.Fatalf("filtered moves %v", got)
	}
	inj.Collect(2, s)
	if inj.c.PartitionBlocked != 1 {
		t.Fatalf("PartitionBlocked = %d", inj.c.PartitionBlocked)
	}
	if iso, rest = inj.StartRound(4); len(iso) != 0 || !reflect.DeepEqual(rest, []int{1, 2}) {
		t.Fatalf("window close: iso %v rest %v", iso, rest)
	}
	if inj.Isolated(1) {
		t.Fatal("still isolated after the window")
	}
}
