package core

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/snapshot"
	"repro/internal/task"
)

// TestRestoredStacksAreIndependent: a restore puts every stack into
// one arena, each a window of its tasks and a few free slots. Pushes
// within a stack's free slots must not move it, and a push past them
// must reallocate that stack alone: every other stack keeps its tasks
// and the state stays consistent, for each stack in turn.
func TestRestoredStacksAreIndependent(t *testing.T) {
	const n = 6
	g := graph.Complete(n)
	thr := FixedVector{V: make([]float64, n)}
	ts := task.NewEmptySet()
	s := NewState(g, ts, nil, thr, 1)
	for r := 0; r < n; r++ {
		for i := 0; i < r; i++ {
			s.InsertTask(float64(1+r+i), r)
		}
	}
	// One departure, so that the task set keeps its removal flags.
	for _, tk := range s.RemoveForDeparture(n-1, []int{0}, nil) {
		s.SettleDeparture(tk)
	}
	w := snapshot.NewWriter(nil)
	w.Begin("tasks")
	ts.Snapshot(w)
	w.End()
	w.Begin("state")
	s.Snapshot(w)
	w.End()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rs := NewState(g, task.NewEmptySet(), nil, thr, 1)
	c, err := snapshot.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	c.Begin("tasks")
	rs.ts.Snapshot(c)
	c.End()
	c.Begin("state")
	rs.Snapshot(c)
	c.End()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	want := make([][]task.Task, n)
	for r := range want {
		want[r] = slices.Clone(rs.Stack(r).Tasks())
		if !slices.Equal(want[r], s.Stack(r).Tasks()) {
			t.Fatalf("resource %d restored as %v, want %v", r, want[r], s.Stack(r).Tasks())
		}
	}
	for r := 0; r < n; r++ {
		st := rs.Stack(r)
		free := cap(st.Tasks()) - st.Len()
		if free < 1 {
			t.Fatalf("resource %d restored with no free slot", r)
		}
		push := func() {
			tk := rs.InsertTask(float64(10+r), r)
			want[r] = append(want[r], tk)
		}
		base := &st.Tasks()[:1][0]
		for i := 0; i < free; i++ {
			push()
		}
		if &st.Tasks()[0] != base {
			t.Fatalf("resource %d moved while pushing into its %d free slots", r, free)
		}
		push()
		for q := range want {
			if !slices.Equal(rs.Stack(q).Tasks(), want[q]) {
				t.Fatalf("after pushing resource %d past its free slots, resource %d holds %v, want %v",
					r, q, rs.Stack(q).Tasks(), want[q])
			}
		}
		if err := rs.CheckInvariants(); err != nil {
			t.Fatalf("after pushing resource %d past its free slots: %v", r, err)
		}
	}
}
