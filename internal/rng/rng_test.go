package rng

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference outputs for seed 0 from the public-domain splitmix64.c.
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4,
		0x06c45d188009454f, 0xf88bb8a8724c81ec,
	}
	st := uint64(0)
	for i, w := range want {
		if got := splitmix64(&st); got != w {
			t.Fatalf("output %d: got %#x want %#x", i, got, w)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := NewSeeded(42), NewSeeded(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("same seed diverged at step %d: %#x vs %#x", i, x, y)
		}
	}
	c := NewSeeded(43)
	same := true
	a2 := NewSeeded(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical prefix")
	}
}

func TestStreamPureFunction(t *testing.T) {
	a := Stream(99, 5)
	b := Stream(99, 5)
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Stream is not a pure function of (seed, id)")
		}
	}
	c := Stream(99, 6)
	d := Stream(100, 5)
	if a.Uint64() == c.Uint64() && a.Uint64() == d.Uint64() {
		t.Fatal("distinct stream ids / seeds look identical")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewSeeded(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewSeeded(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	// Chi-squared goodness of fit over 10 buckets.
	r := NewSeeded(2024)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; critical value at p=0.001 is 27.88.
	if chi2 > 27.88 {
		t.Fatalf("Intn not uniform: chi2=%.2f counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewSeeded(3)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	mean := sum / 100000
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := NewSeeded(4)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewSeeded(5)
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / draws
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %.4f", p)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewSeeded(8)
	sum := 0.0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / draws; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exp mean %.4f far from 1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewSeeded(9)
	const draws = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal moments off: mean=%.4f var=%.4f", mean, variance)
	}
}

func TestParetoSupportAndTail(t *testing.T) {
	r := NewSeeded(10)
	const xm, alpha = 2.0, 3.0
	over4 := 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := r.Pareto(xm, alpha)
		if v < xm {
			t.Fatalf("Pareto below xm: %v", v)
		}
		if v > 4 {
			over4++
		}
	}
	// P(X > 4) = (2/4)^3 = 0.125.
	p := float64(over4) / draws
	if math.Abs(p-0.125) > 0.01 {
		t.Fatalf("Pareto tail P(X>4)=%.4f want 0.125", p)
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestParetoPanics(t *testing.T) {
	r := NewSeeded(1)
	for _, c := range [][2]float64{{0, 1}, {1, 0}, {1, -2}, {math.NaN(), 2}, {1, math.NaN()}} {
		mustPanic(t, fmt.Sprintf("Pareto(%v, %v)", c[0], c[1]), func() { r.Pareto(c[0], c[1]) })
	}
}

// TestNonFiniteParametersPanic: a NaN or infinite parameter fails the
// sampler's check instead of drawing NaN, zero or an overflowed count.
func TestNonFiniteParametersPanic(t *testing.T) {
	r := NewSeeded(1)
	for _, lambda := range []float64{-1, math.NaN(), math.Inf(1), 1e30, MaxPoissonRate * 2} {
		mustPanic(t, fmt.Sprintf("Poisson(%v)", lambda), func() { r.Poisson(lambda) })
	}
	mustPanic(t, "NewZipf(3, NaN)", func() { NewZipf(3, math.NaN()) })
	if k := r.Poisson(MaxPoissonRate); k < 0 {
		t.Fatalf("Poisson(MaxPoissonRate) = %d overflowed", k)
	}
}

func TestZipfDistribution(t *testing.T) {
	r := NewSeeded(11)
	z := NewZipf(4, 1) // P(k) ∝ 1/k over {1,2,3,4}; H4 = 25/12
	counts := make([]int, 5)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Sample(r)
		if k < 1 || k > 4 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	h4 := 1.0 + 0.5 + 1.0/3 + 0.25
	for k := 1; k <= 4; k++ {
		want := (1 / float64(k)) / h4
		got := float64(counts[k]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("Zipf P(%d)=%.4f want %.4f", k, got, want)
		}
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewSeeded(12)
	z := NewZipf(10, 0)
	counts := make([]int, 11)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(r)]++
	}
	for k := 1; k <= 10; k++ {
		p := float64(counts[k]) / 100000
		if math.Abs(p-0.1) > 0.01 {
			t.Fatalf("Zipf(s=0) P(%d)=%.4f want 0.1", k, p)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := NewSeeded(15)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMul64 pins the 128-bit product the Lemire sampler takes from
// bits.Mul64 on the rows its hand-written predecessor was held to.
func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := bits.Mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("Mul64(%#x,%#x) = (%#x,%#x) want (%#x,%#x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkXoshiroUint64(b *testing.B) {
	r := NewSeeded(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRandIntn(b *testing.B) {
	r := NewSeeded(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}

func TestPoissonMoments(t *testing.T) {
	r := NewSeeded(11)
	// Both the exact (small-lambda) and approximate (large-lambda)
	// branches must match the Poisson mean and variance.
	for _, lambda := range []float64{0.5, 4, 30, 200} {
		const n = 20000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < n; i++ {
			k := float64(r.Poisson(lambda))
			sum += k
			sumsq += k * k
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.1 {
			t.Fatalf("lambda=%v: mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.15*lambda+0.2 {
			t.Fatalf("lambda=%v: variance %v", lambda, variance)
		}
	}
	if r.Poisson(0) != 0 {
		t.Fatal("Poisson(0) must be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate did not panic")
		}
	}()
	r.Poisson(-1)
}

// boolLoopReference is the per-trial loop AppendTrials replaces.
func boolLoopReference(r *Rand, n int, p float64) []int {
	var out []int
	for i := 0; i < n; i++ {
		if r.Bool(p) {
			out = append(out, i)
		}
	}
	return out
}

// TestAppendTrialsMatchesBoolLoop checks that AppendTrials returns the
// indices of the Bool loop and leaves the stream where the loop leaves
// it, for probabilities that draw nothing, that draw and never succeed
// (NaN), and that draw with any outcome.
func TestAppendTrialsMatchesBoolLoop(t *testing.T) {
	for _, p := range []float64{-1, 0, 1e-300, 0.02, 0.5, 1, 2, math.NaN()} {
		for _, n := range []int{0, 1, 7, 10000} {
			ref, got := NewSeeded(31), NewSeeded(31)
			want := boolLoopReference(ref, n, p)
			idx := got.AppendTrials(nil, n, p)
			if len(idx) != len(want) {
				t.Fatalf("p=%v n=%d: %d successes, Bool loop %d", p, n, len(idx), len(want))
			}
			for i := range want {
				if idx[i] != want[i] {
					t.Fatalf("p=%v n=%d: success %d at %d, Bool loop %d", p, n, i, idx[i], want[i])
				}
			}
			if a, b := got.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("p=%v n=%d: next Uint64 %#x, after the Bool loop %#x", p, n, a, b)
			}
		}
	}
}

func TestAppendTrialsKeepsPrefix(t *testing.T) {
	got := NewSeeded(32).AppendTrials([]int{-7, -3}, 5, 1)
	want := []int{-7, -3, 0, 1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}
