// Package stats provides the statistical aggregation used by the
// experiment harness: online moments (Welford), quantiles, histograms,
// confidence intervals, and least-squares fits for checking the
// asymptotic shapes the paper predicts (a·log m + b, a·x + b, a·x^p).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count, mean and variance in one pass using
// Welford's algorithm. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x.
func (o *Online) Add(x float64) {
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// Merge combines another accumulator into o (parallel Welford).
func (o *Online) Merge(p Online) {
	if p.n == 0 {
		return
	}
	if o.n == 0 {
		*o = p
		return
	}
	n := o.n + p.n
	d := p.mean - o.mean
	o.m2 += p.m2 + d*d*float64(o.n)*float64(p.n)/float64(n)
	o.mean += d * float64(p.n) / float64(n)
	if p.min < o.min {
		o.min = p.min
	}
	if p.max > o.max {
		o.max = p.max
	}
	o.n = n
}

// N returns the number of samples.
func (o *Online) N() int { return o.n }

// Mean returns the sample mean (0 if empty).
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance (0 if fewer than 2 samples).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// StdDev returns the sample standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest sample (0 if empty).
func (o *Online) Min() float64 { return o.min }

// Max returns the largest sample (0 if empty).
func (o *Online) Max() float64 { return o.max }

// SEM returns the standard error of the mean.
func (o *Online) SEM() float64 {
	if o.n == 0 {
		return 0
	}
	return o.StdDev() / math.Sqrt(float64(o.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean. Valid for the large trial counts (≥100) the
// harness uses.
func (o *Online) CI95() float64 { return 1.96 * o.SEM() }

// String summarises the accumulator for logs.
func (o *Online) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g sd=%.4g min=%.4g max=%.4g",
		o.n, o.Mean(), o.CI95(), o.StdDev(), o.min, o.max)
}

// Mean returns the arithmetic mean of xs (0 if empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It panics on empty input or
// q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for input the caller has already sorted
// ascending — no copy, no allocation. The open-system engine's
// window-snapshot path pools one sorted buffer and reads several
// quantiles from it.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		panic("stats: QuantileSorted of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// LinearFit holds an ordinary-least-squares fit y ≈ Slope·x + Intercept.
type LinearFit struct {
	Slope, Intercept float64
	R2               float64 // coefficient of determination
}

// FitLinear computes the OLS line through (xs, ys). It panics if the
// slices differ in length or hold fewer than two points.
func FitLinear(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) {
		panic("stats: FitLinear length mismatch")
	}
	n := len(xs)
	if n < 2 {
		panic("stats: FitLinear needs at least 2 points")
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Slope: 0, Intercept: my, R2: 0}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = sxy * sxy / (sxx * syy)
	} else {
		fit.R2 = 1 // all ys identical and fit is exact
	}
	return fit
}

// FitLog fits y ≈ a·ln(x) + b, the shape of the paper's O(log m)
// balancing-time bounds. All xs must be positive.
func FitLog(xs, ys []float64) LinearFit {
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			panic("stats: FitLog requires positive x")
		}
		lx[i] = math.Log(x)
	}
	return FitLinear(lx, ys)
}

// PowerFit holds a fit y ≈ C·x^Exponent obtained by regressing in
// log-log space. Used to verify e.g. H(G) = Θ(n²/k) scaling.
type PowerFit struct {
	C, Exponent float64
	R2          float64
}

// FitPower fits y ≈ C·x^p. All xs and ys must be positive.
func FitPower(xs, ys []float64) PowerFit {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: FitPower requires positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	f := FitLinear(lx, ly)
	return PowerFit{C: math.Exp(f.Intercept), Exponent: f.Slope, R2: f.R2}
}

// Pearson returns the Pearson correlation coefficient of xs and ys.
// It panics on length mismatch; returns 0 when either side is constant.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, syy, sxy := 0.0, 0.0, 0.0
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
