package potential

import (
	"math"
	"testing"
)

func TestNonIncreasing(t *testing.T) {
	ok, v := NonIncreasing([]float64{5, 4, 4, 2, 0}, 0)
	if !ok || v != -1 {
		t.Fatalf("ok=%v v=%d", ok, v)
	}
	ok, v = NonIncreasing([]float64{5, 4, 4.5, 2}, 0)
	if ok || v != 2 {
		t.Fatalf("ok=%v v=%d want violation at 2", ok, v)
	}
	// Tolerance absorbs small increases.
	ok, _ = NonIncreasing([]float64{5, 5.0000001}, 1e-3)
	if !ok {
		t.Fatal("tolerance not applied")
	}
	ok, _ = NonIncreasing(nil, 0)
	if !ok {
		t.Fatal("empty trace is vacuously non-increasing")
	}
}

func TestTimeToZero(t *testing.T) {
	if got := TimeToZero([]float64{3, 1, 0, 0}); got != 2 {
		t.Fatalf("got %d", got)
	}
	if got := TimeToZero([]float64{3, 1}); got != -1 {
		t.Fatalf("got %d", got)
	}
	if got := TimeToZero([]float64{0}); got != 0 {
		t.Fatalf("got %d", got)
	}
}

func TestPhaseDropRatios(t *testing.T) {
	// Trace halves every 2 steps: phase=2 ratios all 0.5.
	trace := []float64{16, 12, 8, 6, 4, 3, 2}
	got := PhaseDropRatios(trace, 2)
	for _, r := range got {
		if math.Abs(r-0.5) > 1e-12 {
			t.Fatalf("ratios %v", got)
		}
	}
	if len(got) != 3 {
		t.Fatalf("%d ratios", len(got))
	}
}

func TestPhaseDropRatiosTruncatedTail(t *testing.T) {
	// Length 6 with phase 4: one full phase (0→4) plus truncated 4→5.
	trace := []float64{16, 8, 4, 2, 1, 0.5}
	got := PhaseDropRatios(trace, 4)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if math.Abs(got[0]-1.0/16) > 1e-12 || math.Abs(got[1]-0.5) > 1e-12 {
		t.Fatalf("got %v", got)
	}
}

func TestPhaseDropPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PhaseDropRatios([]float64{1}, 0)
}

func TestMeanDrop(t *testing.T) {
	traces := [][]float64{
		{10, 5, 0}, // drops 0.5, 1.0
		{4, 3},     // drop 0.25
		{0, 0},     // no valid transitions
	}
	got := MeanDrop(traces)
	want := (0.5 + 1.0 + 0.25) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean drop=%v want %v", got, want)
	}
}
