package metrics

import (
	"math"
	"testing"
)

func TestMeasureBasics(t *testing.T) {
	s := Measure([]float64{1, 2, 3, 6}, 2.5)
	if s.N != 4 || s.Total != 12 || s.Average != 3 || s.Max != 6 || s.Min != 1 {
		t.Fatalf("%+v", s)
	}
	if s.Gap != 3 {
		t.Fatalf("gap=%v", s.Gap)
	}
	if s.Overloaded != 2 || s.OverFrac != 0.5 {
		t.Fatalf("overloaded=%d frac=%v", s.Overloaded, s.OverFrac)
	}
	// Population stddev of {1,2,3,6} around 3: sqrt((4+1+0+9)/4)=sqrt(3.5).
	wantCV := math.Sqrt(3.5) / 3
	if math.Abs(s.CV-wantCV) > 1e-12 {
		t.Fatalf("cv=%v want %v", s.CV, wantCV)
	}
}

func TestMeasureUniformVector(t *testing.T) {
	s := Measure([]float64{5, 5, 5}, 10)
	if s.Gap != 0 || s.CV != 0 || s.Gini != 0 || s.Overloaded != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestMeasureZeroLoads(t *testing.T) {
	s := Measure([]float64{0, 0}, 1)
	if s.CV != 0 || s.Gini != 0 || s.Average != 0 {
		t.Fatalf("%+v", s)
	}
}

func TestMeasurePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Measure(nil, 1)
}

func TestGiniKnownValues(t *testing.T) {
	// Perfectly concentrated: [0,0,0,12] → G = (n-1)/n = 0.75.
	if g := Gini([]float64{0, 0, 0, 12}); math.Abs(g-0.75) > 1e-12 {
		t.Fatalf("concentrated gini=%v", g)
	}
	// Two equal halves on two of four: [0,0,6,6] → sorted weights:
	// Σ(2i-n-1)x = (2·3-5)·6 + (2·4-5)·6 = 6+18 = 24; 24/(4·12)=0.5.
	if g := Gini([]float64{0, 0, 6, 6}); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("half gini=%v", g)
	}
	if g := Gini(nil); g != 0 {
		t.Fatalf("empty gini=%v", g)
	}
	if g := Gini([]float64{0, 0}); g != 0 {
		t.Fatalf("zero gini=%v", g)
	}
}

func TestGiniInvariantToScale(t *testing.T) {
	a := Gini([]float64{1, 2, 3, 4})
	b := Gini([]float64{10, 20, 30, 40})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("gini not scale-invariant: %v vs %v", a, b)
	}
}

func TestGiniOrderInvariant(t *testing.T) {
	a := Gini([]float64{4, 1, 3, 2})
	b := Gini([]float64{1, 2, 3, 4})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("gini depends on order: %v vs %v", a, b)
	}
	// Input must not be mutated.
	in := []float64{4, 1}
	Gini(in)
	if in[0] != 4 {
		t.Fatal("Gini mutated its input")
	}
}

func TestGiniPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Gini([]float64{-1, 2})
}
