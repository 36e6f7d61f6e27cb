// Package rng provides fast, deterministic, splittable pseudo-random
// number generation for parallel simulations.
//
// The simulator runs thousands of independent trials concurrently and,
// inside each trial, makes randomised decisions for every resource or
// task in a round. Reproducibility requires that each logical actor
// (trial, resource, task) draw from its own stream whose seed is a pure
// function of the master seed and the actor identity, independent of
// goroutine scheduling. The standard library's math/rand global source
// is locked and non-splittable, so this package implements its own
// generators:
//
//   - SplitMix64: a tiny 64-bit generator used for seeding and stream
//     derivation (Steele, Lea, Flood 2014).
//   - Xoshiro256++: the workhorse generator (Blackman, Vigna 2019).
//   - PCG32: a compact alternative used in cross-validation tests
//     (O'Neill 2014).
//
// All generators implement the Source interface and are NOT safe for
// concurrent use; derive one per goroutine with Split or NewStream.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers. It mirrors
// the subset of math/rand.Rand the simulator needs, plus Split for
// deriving independent sub-streams.
type Source interface {
	// Uint64 returns the next 64 uniformly random bits.
	Uint64() uint64
	// Split returns a new Source whose stream is a deterministic
	// function of the receiver's current state but statistically
	// independent of the receiver's subsequent output.
	Split() Source
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is the canonical finaliser from the public-domain reference code.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64 is a 64-bit state generator. Its primary role is seeding
// other generators and deriving per-actor streams.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next 64 random bits.
func (s *SplitMix64) Uint64() uint64 { return splitmix64(&s.state) }

// Split derives an independent child stream.
func (s *SplitMix64) Split() Source { return &SplitMix64{state: s.Uint64()} }

// Xoshiro256 implements xoshiro256++ 1.0. It has 256 bits of state,
// passes BigCrush, and is the default simulator generator.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator seeded via SplitMix64 from seed, as
// recommended by the xoshiro authors (never seed with all zeros).
func NewXoshiro256(seed uint64) *Xoshiro256 {
	var x Xoshiro256
	st := seed
	for i := range x.s {
		x.s[i] = splitmix64(&st)
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[0]+x.s[3], 23) + x.s[0]
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Split derives an independent child stream by drawing a fresh seed.
func (x *Xoshiro256) Split() Source { return NewXoshiro256(x.Uint64()) }

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls
// to Uint64. Jump can generate 2^128 non-overlapping subsequences for
// parallel use; kept for completeness alongside Split.
func (x *Xoshiro256) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= x.s[0]
				s1 ^= x.s[1]
				s2 ^= x.s[2]
				s3 ^= x.s[3]
			}
			x.Uint64()
		}
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
}

// PCG32 implements the PCG-XSH-RR 64/32 generator. It produces 32 bits
// per step; Uint64 concatenates two steps. Used to cross-check that
// simulation outcomes do not depend on generator family.
type PCG32 struct {
	state uint64
	inc   uint64
}

// NewPCG32 returns a PCG32 seeded with seed on the default stream.
func NewPCG32(seed uint64) *PCG32 {
	p := &PCG32{inc: 0xda3e39cb94b95bdb | 1}
	p.state = 0
	p.next()
	p.state += seed
	p.next()
	return p
}

func (p *PCG32) next() uint32 {
	old := p.state
	p.state = old*6364136223846793005 + p.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))
}

// Uint64 returns the next 64 random bits (two PCG steps).
func (p *PCG32) Uint64() uint64 { return uint64(p.next())<<32 | uint64(p.next()) }

// Split derives an independent child stream on a distinct PCG sequence.
func (p *PCG32) Split() Source {
	child := &PCG32{inc: (p.Uint64() << 1) | 1}
	child.state = 0
	child.next()
	child.state += p.Uint64()
	child.next()
	return child
}

// Rand wraps a Source with the distribution samplers the simulator
// needs. It is intentionally a small, allocation-free subset of
// math/rand.Rand. Not safe for concurrent use.
type Rand struct {
	src Source
}

// New returns a Rand drawing from src.
func New(src Source) *Rand { return &Rand{src: src} }

// NewSeeded returns a Rand backed by a fresh Xoshiro256 stream.
func NewSeeded(seed uint64) *Rand { return New(NewXoshiro256(seed)) }

// Stream derives the id-th deterministic sub-stream of a master seed.
// Stream(seed, id) is a pure function, so any actor can reconstruct its
// generator without coordination.
func Stream(seed, id uint64) *Rand {
	st := seed
	_ = splitmix64(&st) // decorrelate seed and id contributions
	st ^= id * 0x9e3779b97f4a7c15
	return NewSeeded(splitmix64(&st))
}

// Split derives an independent child Rand.
func (r *Rand) Split() *Rand { return &Rand{src: r.src.Split()} }

// Hash3 hashes (seed, a, b, c) through the SplitMix64 finaliser chain
// into one decorrelated 64-bit value — a stateless keyed draw. Unlike
// Stream it allocates nothing and advances no state, so a caller can
// make per-(task, round, attempt) randomised decisions whose outcome
// is a pure function of the key tuple, independent of evaluation
// order, shard partition or worker count. Each key is folded in with
// its own odd multiplier (the SplitMix64 mixing constants) before a
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

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Int63 returns a non-negative int64.
func (r *Rand) Int63() int64 { return int64(r.src.Uint64() >> 1) }

// Intn returns an int uniform on [0,n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method (unbiased).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uint64 uniform on [0,n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire rejection sampling on the high 64 bits of the 128-bit
	// product keeps the result exactly uniform.
	for {
		v := r.src.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a float64 uniform on [0,1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.src.Uint64()>>11) / (1 << 53)
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
// Float64 per trial otherwise (a NaN p draws and never succeeds) — so
// a loop of Bool calls can be replaced without shifting the stream.
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
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			dst = append(dst, i)
		}
	}
	return dst
}

// Perm returns a uniformly random permutation of [0,n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomises the order of n elements using swap (Fisher–Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
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
// P(X > x) = (xm/x)^alpha. It panics if xm <= 0 or alpha <= 0.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
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
// It panics if n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf requires n > 0")
	}
	if s < 0 {
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

// Poisson returns a Poisson(lambda) variate. Small rates use Knuth's
// uniform-product method (exact); large rates fall back to the normal
// approximation with continuity correction, which is accurate to well
// under a percent for lambda > 60 — plenty for the arrival processes
// that use it. It panics on a negative rate.
func (r *Rand) Poisson(lambda float64) int {
	if lambda < 0 {
		panic("rng: Poisson requires lambda >= 0")
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

// Binomial returns a Binomial(n, p) variate. For small n it sums
// Bernoulli draws; for large n it uses the normal approximation with
// continuity correction clamped to [0,n], which is accurate enough for
// the workload generators that use it (np(1-p) large).
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial requires n >= 0")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	k := int(math.Round(mean + sd*r.NormFloat64()))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}
