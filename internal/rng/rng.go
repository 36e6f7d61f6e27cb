// Package rng provides fast, deterministic pseudo-random number
// generation for parallel simulations.
//
// The simulator runs thousands of independent trials concurrently and,
// inside each trial, makes randomised decisions for every resource or
// task in a round. Reproducibility requires that each logical actor
// (trial, resource, task) draw from its own stream whose seed is a pure
// function of the master seed and the actor identity, independent of
// goroutine scheduling. The standard library's math/rand global source
// is locked and non-splittable, so this package implements its own
// generator: Rand is xoshiro256++ 1.0 (Blackman, Vigna 2019), seeded
// through the splitmix64 finaliser (Steele, Lea, Flood 2014), which
// also derives per-actor streams (Stream) and stateless keyed draws
// (Hash3).
//
// A Rand is four words held by value and is NOT safe for concurrent
// use; derive one per actor with Stream.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances a splitmix64 state and returns the next output.
// It is the canonical finaliser from the public-domain reference code.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256++ 1.0 generator (256 bits of state, passes
// BigCrush) with the distribution samplers the simulator needs — a
// small, allocation-free subset of math/rand.Rand. It is a plain value:
// a copy of a Rand is a copy of its position, so a copy that draws
// replays the original's stream rather than advancing it. The zero
// value is not a usable generator (an all-zero state stays zero);
// make one with NewSeeded or Stream. Not safe for concurrent use.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// NewSeeded returns a generator seeded via splitmix64 from seed, as the
// xoshiro authors recommend (never seed with all zeros).
//
// NewSeeded and Stream are small enough to inline, so a caller that
// keeps the generator by value (*Stream(seed, id)) allocates nothing.
func NewSeeded(seed uint64) *Rand {
	r := new(Rand)
	r.seed(seed)
	return r
}

// Stream derives the id-th deterministic sub-stream of a master seed.
// Stream(seed, id) is a pure function, so any actor can reconstruct its
// generator without coordination.
func Stream(seed, id uint64) *Rand {
	r := new(Rand)
	r.seedStream(seed, id)
	return r
}

// seed and seedStream stay out of line (each is over the inlining
// budget), which is what lets NewSeeded and Stream inline.
func (r *Rand) seed(seed uint64) {
	st := seed
	r.s0 = splitmix64(&st)
	r.s1 = splitmix64(&st)
	r.s2 = splitmix64(&st)
	r.s3 = splitmix64(&st)
}

func (r *Rand) seedStream(seed, id uint64) {
	st := seed
	_ = splitmix64(&st) // decorrelate seed and id contributions
	st ^= id * 0x9e3779b97f4a7c15
	r.seed(splitmix64(&st))
}

// Hash3 hashes (seed, a, b, c) through the splitmix64 finaliser chain
// into one decorrelated 64-bit value — a stateless keyed draw. Unlike
// Stream it allocates nothing and advances no state, so a caller can
// make per-(task, round, attempt) randomised decisions whose outcome
// is a pure function of the key tuple, independent of evaluation
// order, shard partition or worker count. Each key is folded in with
// its own odd multiplier (the splitmix64 mixing constants) before a
// finaliser step, so permuting the keys changes the output.
func Hash3(seed, a, b, c uint64) uint64 {
	st := seed
	_ = splitmix64(&st) // decorrelate seed and key contributions
	st ^= a * 0x9e3779b97f4a7c15
	_ = splitmix64(&st)
	st ^= b * 0xbf58476d1ce4e5b9
	_ = splitmix64(&st)
	st ^= c * 0x94d049bb133111eb
	return splitmix64(&st)
}

// HashFloat3 maps Hash3 onto [0,1) with 53 bits of precision — the
// keyed analogue of Rand.Float64 for probability draws.
func HashFloat3(seed, a, b, c uint64) float64 {
	return float64(Hash3(seed, a, b, c)>>11) / (1 << 53)
}

// Uint64 returns the next 64 random bits. It loads the state into
// locals and stores it back once, which keeps it (and Float64 around
// it) under the compiler's inlining budget, so a draw costs no call.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	out := bits.RotateLeft64(s0+s3, 23) + s0
	s2 ^= s0
	s3 ^= s1
	r.s0, r.s1, r.s2, r.s3 = s0^s3, s1^s2, s2^s1<<17, bits.RotateLeft64(s3, 45)
	return out
}

// Intn returns an int uniform on [0,n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uint64 uniform on [0,n) for n > 0.
func (r *Rand) uint64n(n uint64) uint64 {
	// Lemire rejection sampling on the high 64 bits of the 128-bit
	// product keeps the result exactly uniform.
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// Float64 returns a float64 uniform on [0,1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p. Probabilities outside [0,1]
// clamp to certainty, which is the behaviour the protocols need when
// the analysis constant α would push a migration probability above 1.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// AppendTrials runs n Bernoulli(p) trials and appends the indices of
// the successes, in increasing order, to dst. It draws exactly what n
// successive Bool(p) calls draw — nothing when p ≤ 0 or p ≥ 1, one
// word per trial otherwise (a NaN p draws and never succeeds) — so a
// loop of Bool calls can be replaced without shifting the stream.
func (r *Rand) AppendTrials(dst []int, n int, p float64) []int {
	switch {
	case p <= 0:
		return dst
	case p >= 1:
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	// Float64() < p is u>>11 < ⌈p·2⁵³⌉ for the drawn word u: u>>11 is
	// an integer below 2⁵³ and p·2⁵³ is exact, and an integer is below
	// a real exactly when it is below the real's ceiling. A NaN p gets
	// the bound 0, which no draw is below.
	var bound uint64
	if !math.IsNaN(p) {
		bound = uint64(math.Ceil(p * (1 << 53)))
	}
	// Uint64's step, on words that stay in registers for the loop.
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := 0; i < n; i++ {
		u := bits.RotateLeft64(s0+s3, 23) + s0
		s2 ^= s0
		s3 ^= s1
		s0, s1, s2, s3 = s0^s3, s1^s2, s2^s1<<17, bits.RotateLeft64(s3, 45)
		if u>>11 < bound {
			dst = append(dst, i)
		}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return dst
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), via inversion. Multiply by the desired mean.
func (r *Rand) ExpFloat64() float64 {
	// 1-Float64() is in (0,1], so Log never sees zero.
	return -math.Log(1 - r.Float64())
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Pareto returns a Pareto(xm, alpha) variate: support [xm, ∞),
// P(X > x) = (xm/x)^alpha. It panics unless both are positive (a NaN
// is not).
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if !(xm > 0 && alpha > 0) {
		panic("rng: Pareto requires positive parameters")
	}
	return xm / math.Pow(1-r.Float64(), 1/alpha)
}

// Zipf samples an integer in [1,n] with P(k) ∝ k^(-s) using inversion
// over the precomputed CDF held in z.
type Zipf struct {
	cdf []float64 // cdf[k-1] = P(X <= k)
}

// NewZipf precomputes a Zipf(s) distribution on {1,…,n}.
// It panics if n <= 0 or s < 0 (or s is NaN).
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf requires n > 0")
	}
	if !(s >= 0) {
		panic("rng: Zipf requires s >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // exact upper bound despite rounding
	return &Zipf{cdf: cdf}
}

// Sample draws one Zipf variate in [1, n].
func (z *Zipf) Sample(r *Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// MaxPoissonRate is the largest rate Poisson accepts. A draw at a rate
// this high still fits in an int: the normal approximation adds at
// most about 12 standard deviations (the polar method's largest
// variate), and 12·√MaxPoissonRate is far below MaxPoissonRate.
const MaxPoissonRate = math.MaxInt >> 1

// Poisson returns a Poisson(lambda) variate. Small rates use Knuth's
// uniform-product method (exact); large rates fall back to the normal
// approximation with continuity correction, which is accurate to well
// under a percent for lambda > 60 — plenty for the arrival processes
// that use it. It panics unless 0 ≤ lambda ≤ MaxPoissonRate (NaN and
// +Inf included).
func (r *Rand) Poisson(lambda float64) int {
	if !(lambda >= 0 && lambda <= MaxPoissonRate) {
		panic("rng: Poisson requires 0 <= lambda <= MaxPoissonRate")
	}
	if lambda == 0 {
		return 0
	}
	if lambda <= 60 {
		limit := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= limit {
				return k
			}
			k++
		}
	}
	k := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
	if k < 0 {
		k = 0
	}
	return k
}
