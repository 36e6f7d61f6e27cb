package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestOnlineBasics(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N=%d", o.N())
	}
	if !almostEq(o.Mean(), 5, 1e-12) {
		t.Fatalf("mean=%v", o.Mean())
	}
	// Population variance of this classic dataset is 4; sample variance
	// is 32/7.
	if !almostEq(o.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var=%v", o.Var())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("min/max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Var() != 0 || o.SEM() != 0 || o.CI95() != 0 {
		t.Fatal("empty accumulator should be all zeros")
	}
}

func TestOnlineSingle(t *testing.T) {
	var o Online
	o.Add(3.5)
	if o.Mean() != 3.5 || o.Var() != 0 {
		t.Fatalf("single-sample stats wrong: %v", o.String())
	}
}

func TestOnlineMergeMatchesSequential(t *testing.T) {
	r := rng.NewSeeded(1)
	f := func(seed uint64) bool {
		var whole, left, right Online
		n := 3 + int(seed%97)
		for i := 0; i < n; i++ {
			x := r.NormFloat64()*3 + 10
			whole.Add(x)
			if i < n/2 {
				left.Add(x)
			} else {
				right.Add(x)
			}
		}
		left.Merge(right)
		return left.N() == whole.N() &&
			almostEq(left.Mean(), whole.Mean(), 1e-9) &&
			almostEq(left.Var(), whole.Var(), 1e-9) &&
			left.Min() == whole.Min() && left.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineMergeEmpty(t *testing.T) {
	var a, b Online
	a.Add(1)
	a.Add(2)
	saved := a
	a.Merge(b) // merging empty is a no-op
	if a != saved {
		t.Fatal("merge with empty changed accumulator")
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 2 || !almostEq(b.Mean(), 1.5, 1e-12) {
		t.Fatal("merge into empty failed")
	}
}

func TestMeanVarianceSlices(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean=%v", Mean(xs))
	}
	if !almostEq(Variance(xs), 5.0/3.0, 1e-12) {
		t.Fatalf("var=%v", Variance(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || StdDev([]float64{7}) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0=%v", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1=%v", got)
	}
	if got := Quantile(xs, 0.5); !almostEq(got, 3.5, 1e-12) {
		t.Fatalf("median=%v", got)
	}
	// Input must be left untouched.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated its input")
	}
	if got := Quantile([]float64{42}, 0.3); got != 42 {
		t.Fatalf("singleton quantile=%v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	f := FitLinear(xs, ys)
	if !almostEq(f.Slope, 3, 1e-9) || !almostEq(f.Intercept, -7, 1e-9) || !almostEq(f.R2, 1, 1e-9) {
		t.Fatalf("fit=%+v", f)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	r := rng.NewSeeded(2)
	var xs, ys []float64
	for i := 1; i <= 200; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 2*x+5+r.NormFloat64())
	}
	f := FitLinear(xs, ys)
	if !almostEq(f.Slope, 2, 0.02) || !almostEq(f.Intercept, 5, 1.5) {
		t.Fatalf("noisy fit=%+v", f)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2=%v too low", f.R2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	// Vertical data: all x equal.
	f := FitLinear([]float64{2, 2, 2}, []float64{1, 5, 9})
	if f.Slope != 0 || !almostEq(f.Intercept, 5, 1e-12) {
		t.Fatalf("degenerate fit=%+v", f)
	}
	// Horizontal data: all y equal — R2 defined as 1 (exact fit).
	g := FitLinear([]float64{1, 2, 3}, []float64{4, 4, 4})
	if g.Slope != 0 || g.Intercept != 4 || g.R2 != 1 {
		t.Fatalf("horizontal fit=%+v", g)
	}
}

func TestFitLog(t *testing.T) {
	var xs, ys []float64
	for _, x := range []float64{10, 100, 1000, 10000} {
		xs = append(xs, x)
		ys = append(ys, 4*math.Log(x)+1)
	}
	f := FitLog(xs, ys)
	if !almostEq(f.Slope, 4, 1e-9) || !almostEq(f.Intercept, 1, 1e-9) {
		t.Fatalf("log fit=%+v", f)
	}
}

func TestFitPower(t *testing.T) {
	var xs, ys []float64
	for _, x := range []float64{2, 4, 8, 16, 32} {
		xs = append(xs, x)
		ys = append(ys, 5*math.Pow(x, 1.7))
	}
	f := FitPower(xs, ys)
	if !almostEq(f.Exponent, 1.7, 1e-9) || !almostEq(f.C, 5, 1e-6) {
		t.Fatalf("power fit=%+v", f)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Fatalf("perfect corr=%v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Fatalf("perfect anticorr=%v", got)
	}
	if got := Pearson(xs, []float64{3, 3, 3, 3, 3}); got != 0 {
		t.Fatalf("constant corr=%v", got)
	}
}

func TestFitPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mismatch": func() { FitLinear([]float64{1}, []float64{1, 2}) },
		"short":    func() { FitLinear([]float64{1}, []float64{1}) },
		"logneg":   func() { FitLog([]float64{-1, 2}, []float64{1, 2}) },
		"powneg":   func() { FitPower([]float64{1, 2}, []float64{-1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
