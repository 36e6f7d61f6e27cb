// Package task models the weighted tasks (balls) of the paper and the
// workload generators the experiments need: weight distributions
// (constant, the two-point mixture of Figure 1, uniform ranges,
// exponential, Pareto, discretised Zipf) and initial placements
// (everything on one resource as in Section 7, uniform random,
// adversarial spreads).
//
// Weights are float64 with the paper's normalisation wmin ≥ 1 ("if this
// is not the case, then one can easily scale all parameters, such that
// wmin = 1"). Generators in this package enforce w ≥ 1.
package task

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Task is a weighted ball. ID is stable across migrations so traces can
// follow individual tasks.
type Task struct {
	ID     int
	Weight float64
}

// ValidWeight reports whether w satisfies the library's normalisation:
// finite and at least wmin = 1. Every entry point (static scenarios,
// open-system arrivals, Set construction) checks through this single
// predicate. w >= 1 is false for NaN, so NaN needs no separate test.
func ValidWeight(w float64) bool { return w >= 1 && !math.IsInf(w, 0) }

// Set is a collection of tasks plus its cached aggregate statistics
// (W, wmax, wmin) that the threshold formulas need. Static scenarios
// build a Set once and never mutate it; the open-system engine grows
// and shrinks a Set via Add and Remove. A removed task's ID is
// recycled: it goes on a free list and the next Add reuses it, so the
// ID space — and every array indexed by task ID — stays proportional
// to the in-flight population instead of growing with every arrival
// ever. An ID therefore identifies a task only while it is live.
type Set struct {
	tasks   []Task
	removed []bool // lazily allocated; nil in static runs
	free    []int  // recycled IDs, LIFO
	live    int
	liveTop int     // 1 + highest live ID (0 when no task is live)
	total   float64 // live weight only
	wmax    float64 // high-watermark over every task ever added
	wmin    float64 // low-watermark likewise
}

// NewSet builds a Set from weights, assigning IDs 0..len-1.
// It panics if weights is empty or any weight is below 1 or non-finite.
func NewSet(weights []float64) *Set {
	if len(weights) == 0 {
		panic("task: empty task set")
	}
	s := &Set{
		tasks: make([]Task, len(weights)),
		wmax:  weights[0],
		wmin:  weights[0],
	}
	for i, w := range weights {
		if !ValidWeight(w) {
			panic(fmt.Sprintf("task: weight %v at index %d violates wmin >= 1", w, i))
		}
		s.tasks[i] = Task{ID: i, Weight: w}
		s.total += w
		if w > s.wmax {
			s.wmax = w
		}
		if w < s.wmin {
			s.wmin = w
		}
	}
	s.live = len(weights)
	s.liveTop = len(weights)
	return s
}

// NewEmptySet returns a Set with no tasks, ready to grow via Add — the
// starting state of an open system before the first arrival.
func NewEmptySet() *Set { return &Set{} }

// Add registers a new task and returns it, reusing the most recently
// freed ID when one exists and extending the ID space otherwise. The
// watermarks wmax/wmin only ever widen, so thresholds computed from
// them stay valid for every task seen so far.
// It panics if w is below 1 or non-finite.
func (s *Set) Add(w float64) Task {
	if !ValidWeight(w) {
		panic(fmt.Sprintf("task: weight %v violates wmin >= 1", w))
	}
	var t Task
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		t = Task{ID: id, Weight: w}
		s.tasks[id] = t
		s.removed[id] = false
	} else {
		t = Task{ID: len(s.tasks), Weight: w}
		s.tasks = append(s.tasks, t)
		if s.removed != nil {
			s.removed = append(s.removed, false)
		}
	}
	s.live++
	if t.ID >= s.liveTop {
		s.liveTop = t.ID + 1
	}
	s.total += w
	if s.wmax == 0 || w > s.wmax {
		s.wmax = w
	}
	if s.wmin == 0 || w < s.wmin {
		s.wmin = w
	}
	return t
}

// Remove retires task id (a departure): its weight leaves W and the
// live count, and the ID joins the free list for the next Add to
// reuse. Callers that follow individual tasks across time must
// therefore treat (ID, liveness interval) as the identity, not the ID
// alone. It panics on an unknown or already-removed id.
//
// When a drain leaves the live population far below the ID-space
// high-watermark (a burst peak long past), Remove compacts the set —
// see shrink — so bursty traces release capacity instead of holding
// peak-sized arrays forever.
func (s *Set) Remove(id int) {
	if id < 0 || id >= len(s.tasks) {
		panic(fmt.Sprintf("task: Remove of unknown task %d", id))
	}
	if s.removed == nil {
		s.removed = make([]bool, len(s.tasks))
	}
	if s.removed[id] {
		panic(fmt.Sprintf("task: task %d removed twice", id))
	}
	s.removed[id] = true
	s.free = append(s.free, id)
	s.live--
	s.total -= s.tasks[id].Weight
	// Keep the live-top watermark tight. The scan is amortised O(1):
	// each step permanently lowers the watermark, and it only rises
	// again when an Add claims an ID at or above it.
	if id == s.liveTop-1 {
		for s.liveTop > 0 && s.removed[s.liveTop-1] {
			s.liveTop--
		}
	}
	if len(s.tasks) >= shrinkMinLen && s.live*4 <= len(s.tasks) && 2*s.liveTop <= len(s.tasks) {
		s.shrink()
	}
}

// shrinkMinLen is the ID-space size below which compaction is never
// attempted: small sets cost nothing to keep and shrinking them would
// only churn allocations.
const shrinkMinLen = 1024

// shrink is the long-trace compaction: it truncates the all-removed
// tail of the ID space above the live-top watermark, drops the
// truncated IDs from the free list (preserving the LIFO order of the
// survivors, so ID assignment stays a pure function of the operation
// sequence), and re-allocates the backing arrays so the burst-peak
// capacity is actually released to the collector. Only the tail can
// go — live IDs are pinned by every ID-indexed structure in the
// callers (stacks, location maps, service state) — so a live task near
// the top of the ID space blocks compaction (the watermark check in
// Remove, which also gives hysteresis: shrink only fires when it at
// least halves the arrays, so there is no shrink/grow thrash at the
// trigger boundary and no repeated scanning while blocked).
func (s *Set) shrink() {
	k := s.liveTop
	free := make([]int, 0, k)
	for _, id := range s.free {
		if id < k {
			free = append(free, id)
		}
	}
	s.free = free
	s.tasks = append(make([]Task, 0, k), s.tasks[:k]...)
	s.removed = append(make([]bool, 0, k), s.removed[:k]...)
}

// Removed reports whether task id has departed.
func (s *Set) Removed(id int) bool {
	return s.removed != nil && id >= 0 && id < len(s.removed) && s.removed[id]
}

// Live returns the number of in-flight (non-removed) tasks.
func (s *Set) Live() int { return s.live }

// M returns the size of the ID space: the high-watermark of
// simultaneously allocated IDs (equal to Live for static sets; with ID
// recycling this tracks the peak in-flight population, not the number
// of arrivals ever).
func (s *Set) M() int { return len(s.tasks) }

// W returns the total in-flight weight Σ w_i over live tasks.
func (s *Set) W() float64 { return s.total }

// WMax returns the maximum task weight ever seen (0 for an empty set).
func (s *Set) WMax() float64 { return s.wmax }

// Task returns the i-th task.
func (s *Set) Task(i int) Task { return s.tasks[i] }

// Tasks returns the underlying slice; callers must not modify it.
func (s *Set) Tasks() []Task { return s.tasks }

// Weight returns the weight of task id.
func (s *Set) Weight(id int) float64 { return s.tasks[id].Weight }

// Distribution generates task weights.
type Distribution interface {
	// Weights returns m weights, each ≥ 1.
	Weights(m int, r *rng.Rand) []float64
	// Name identifies the distribution in reports.
	Name() string
}

// Appender is implemented by distributions that can emit weights into
// a caller-provided buffer. AppendWeights must consume the generator
// exactly like Weights, so the two are interchangeable in a
// deterministic run; the open-system engine uses it to keep
// steady-state arrival rounds allocation-free.
type Appender interface {
	AppendWeights(dst []float64, m int, r *rng.Rand) []float64
}

// AppendWeights appends m weights drawn from d to dst, using d's
// allocation-free path when it has one and falling back to Weights
// otherwise.
func AppendWeights(d Distribution, dst []float64, m int, r *rng.Rand) []float64 {
	if m <= 0 {
		return dst
	}
	if a, ok := d.(Appender); ok {
		return a.AppendWeights(dst, m, r)
	}
	return append(dst, d.Weights(m, r)...)
}

// Uniform gives every task the same weight w ≥ 1 (the classical
// unit-ball setting when w = 1, i.e. the Ackermann et al. baseline).
type Uniform struct{ W float64 }

// Weights implements Distribution.
func (u Uniform) Weights(m int, r *rng.Rand) []float64 {
	return u.AppendWeights(make([]float64, 0, m), m, r)
}

// AppendWeights implements Appender.
func (u Uniform) AppendWeights(dst []float64, m int, r *rng.Rand) []float64 {
	if !ValidWeight(u.W) {
		panic("task: Uniform weight must be finite and >= 1")
	}
	for i := 0; i < m; i++ {
		dst = append(dst, u.W)
	}
	return dst
}

// Name identifies the distribution.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(w=%g)", u.W) }

// TwoPoint is the Figure 1 workload: K tasks of weight Heavy, the rest
// weight 1. If K exceeds m, all tasks are heavy.
type TwoPoint struct {
	Heavy float64 // weight of the heavy tasks (wmax), ≥ 1
	K     int     // number of heavy tasks
}

// Weights implements Distribution. The heavy tasks take the lowest IDs,
// matching the paper's "k tasks with weight wmax" description; placement
// strategies randomise positions independently of IDs.
func (t TwoPoint) Weights(m int, r *rng.Rand) []float64 {
	return t.AppendWeights(make([]float64, 0, m), m, r)
}

// AppendWeights implements Appender; the heavy tasks lead each batch.
func (t TwoPoint) AppendWeights(dst []float64, m int, r *rng.Rand) []float64 {
	if !ValidWeight(t.Heavy) {
		panic("task: TwoPoint heavy weight must be finite and >= 1")
	}
	if t.K < 0 {
		panic("task: TwoPoint K must be >= 0")
	}
	for i := 0; i < m; i++ {
		if i < t.K {
			dst = append(dst, t.Heavy)
		} else {
			dst = append(dst, 1)
		}
	}
	return dst
}

// Name identifies the distribution.
func (t TwoPoint) Name() string { return fmt.Sprintf("twopoint(heavy=%g,k=%d)", t.Heavy, t.K) }

// UniformRange draws weights uniformly from [Lo, Hi], Lo ≥ 1.
type UniformRange struct{ Lo, Hi float64 }

// Weights implements Distribution.
func (u UniformRange) Weights(m int, r *rng.Rand) []float64 {
	return u.AppendWeights(make([]float64, 0, m), m, r)
}

// AppendWeights implements Appender.
func (u UniformRange) AppendWeights(dst []float64, m int, r *rng.Rand) []float64 {
	if !ValidWeight(u.Lo) || !ValidWeight(u.Hi) || u.Hi < u.Lo {
		panic("task: UniformRange requires 1 <= Lo <= Hi, both finite")
	}
	for i := 0; i < m; i++ {
		dst = append(dst, u.Lo+(u.Hi-u.Lo)*r.Float64())
	}
	return dst
}

// Name identifies the distribution.
func (u UniformRange) Name() string { return fmt.Sprintf("range[%g,%g]", u.Lo, u.Hi) }

// Exponential draws 1 + Exp(mean = Mean−1), so the support starts at 1
// and the mean is Mean. Models service times with light tails.
type Exponential struct{ Mean float64 }

// Weights implements Distribution.
func (e Exponential) Weights(m int, r *rng.Rand) []float64 {
	return e.AppendWeights(make([]float64, 0, m), m, r)
}

// AppendWeights implements Appender.
func (e Exponential) AppendWeights(dst []float64, m int, r *rng.Rand) []float64 {
	if !ValidWeight(e.Mean) {
		panic("task: Exponential mean must be finite and >= 1")
	}
	for i := 0; i < m; i++ {
		dst = append(dst, 1+(e.Mean-1)*r.ExpFloat64())
	}
	return dst
}

// Name identifies the distribution.
func (e Exponential) Name() string { return fmt.Sprintf("exp(mean=%g)", e.Mean) }

// Pareto draws Pareto(1, Alpha) weights capped at Cap (0 = no cap).
// Heavy-tailed workloads; Talwar–Wieder study this regime for
// two-choice processes. Alpha > 1 gives a finite mean.
type Pareto struct {
	Alpha float64
	Cap   float64
}

// Weights implements Distribution.
func (p Pareto) Weights(m int, r *rng.Rand) []float64 {
	return p.AppendWeights(make([]float64, 0, m), m, r)
}

// AppendWeights implements Appender.
func (p Pareto) AppendWeights(dst []float64, m int, r *rng.Rand) []float64 {
	if !(p.Alpha > 0) {
		panic("task: Pareto alpha must be positive")
	}
	for i := 0; i < m; i++ {
		w := r.Pareto(1, p.Alpha)
		if p.Cap > 0 && w > p.Cap {
			w = p.Cap
		}
		dst = append(dst, w)
	}
	return dst
}

// Name identifies the distribution.
func (p Pareto) Name() string { return fmt.Sprintf("pareto(a=%g,cap=%g)", p.Alpha, p.Cap) }

// ZipfWeights draws integer weights in {1..MaxW} with P(w) ∝ w^(-S).
type ZipfWeights struct {
	MaxW int
	S    float64
}

// Weights implements Distribution.
func (z ZipfWeights) Weights(m int, r *rng.Rand) []float64 {
	zipf := rng.NewZipf(z.MaxW, z.S)
	ws := make([]float64, m)
	for i := range ws {
		ws[i] = float64(zipf.Sample(r))
	}
	return ws
}

// Name identifies the distribution.
func (z ZipfWeights) Name() string { return fmt.Sprintf("zipf(maxw=%d,s=%g)", z.MaxW, z.S) }

// Placement assigns each task an initial resource.
type Placement interface {
	// Assign returns a slice of resource indices, one per task in s.
	Assign(s *Set, n int, r *rng.Rand) []int
	// Name identifies the placement in reports.
	Name() string
}

// SingleSource puts every task on one resource — the paper's Section 7
// setup ("all tasks are initially held by the same resource") and the
// worst case for user-controlled balancing.
type SingleSource struct{ Resource int }

// Assign implements Placement.
func (p SingleSource) Assign(s *Set, n int, r *rng.Rand) []int {
	if p.Resource < 0 || p.Resource >= n {
		panic("task: SingleSource resource out of range")
	}
	out := make([]int, s.M())
	for i := range out {
		out[i] = p.Resource
	}
	return out
}

// Name identifies the placement.
func (p SingleSource) Name() string { return fmt.Sprintf("single(r=%d)", p.Resource) }

// RandomPlacement scatters tasks independently and uniformly.
type RandomPlacement struct{}

// Assign implements Placement.
func (RandomPlacement) Assign(s *Set, n int, r *rng.Rand) []int {
	out := make([]int, s.M())
	for i := range out {
		out[i] = r.Intn(n)
	}
	return out
}

// Name identifies the placement.
func (RandomPlacement) Name() string { return "random" }

// BlockPlacement piles all tasks onto the first K resources
// round-robin — the Observation 8 adversarial setup generalised
// (tasks concentrated on a small part of the graph).
type BlockPlacement struct{ K int }

// Assign implements Placement.
func (p BlockPlacement) Assign(s *Set, n int, r *rng.Rand) []int {
	k := p.K
	if k <= 0 || k > n {
		panic("task: BlockPlacement K out of range")
	}
	out := make([]int, s.M())
	for i := range out {
		out[i] = i % k
	}
	return out
}

// Name identifies the placement.
func (p BlockPlacement) Name() string { return fmt.Sprintf("block(k=%d)", p.K) }

// ProperPlacement computes a first-fit proper assignment: no resource
// receives more than W/n + wmax total weight (the paper notes "it is
// trivial to calculate a proper assignment in a centralized manner.
// The simple first fit rule will work"). Used as the balanced reference
// state and as the target assignment in the Lemma 5 analysis harness.
type ProperPlacement struct{}

// Assign implements Placement. Tasks are placed largest-first to make
// first fit robust; the bound W/n + wmax holds regardless.
func (ProperPlacement) Assign(s *Set, n int, r *rng.Rand) []int {
	cap := s.W()/float64(n) + s.WMax()
	load := make([]float64, n)
	// Sort task indices by descending weight without mutating s.
	order := make([]int, s.M())
	for i := range order {
		order[i] = i
	}
	// Insertion-free counting sort is overkill; simple sort suffices.
	sortByWeightDesc(order, s)
	out := make([]int, s.M())
	next := 0
	for _, id := range order {
		w := s.Weight(id)
		placed := false
		for tries := 0; tries < n; tries++ {
			res := (next + tries) % n
			if load[res]+w <= cap {
				out[id] = res
				load[res] += w
				next = res
				placed = true
				break
			}
		}
		if !placed {
			// Cannot happen: first-fit with cap W/n + wmax always
			// succeeds (pigeonhole), but fail loudly if it ever does.
			panic("task: ProperPlacement failed; first-fit invariant broken")
		}
	}
	return out
}

// Name identifies the placement.
func (ProperPlacement) Name() string { return "proper(first-fit)" }

func sortByWeightDesc(order []int, s *Set) {
	// Simple in-place heapsort to avoid importing sort with closures in
	// a hot path; m is at most a few hundred thousand.
	n := len(order)
	less := func(a, b int) bool { // max-heap on ascending => pop biggest last
		return s.Weight(order[a]) < s.Weight(order[b])
	}
	swap := func(a, b int) { order[a], order[b] = order[b], order[a] }
	var down func(i, n int)
	down = func(i, n int) {
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			big := l
			if r := l + 1; r < n && less(l, r) {
				big = r
			}
			if !less(i, big) {
				return
			}
			swap(i, big)
			i = big
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i, n)
	}
	for end := n - 1; end > 0; end-- {
		swap(0, end)
		down(0, end)
	}
	// Heapsort leaves ascending order; reverse for descending.
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		swap(i, j)
	}
}
