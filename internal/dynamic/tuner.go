package dynamic

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/walk"
)

// Tuner re-estimates the threshold vector online as the in-flight
// population drifts — the self-learning knob of the open system. The
// engine calls Refresh after every round; a non-nil return value
// replaces the state's thresholds. Tuners are stateful (decaying
// averages, cached vectors): construct a fresh one per run, or
// back-to-back runs with the same seed will diverge.
type Tuner interface {
	// Refresh observes the post-round state and returns a fresh
	// threshold vector when an update is due, or nil to keep the
	// current one.
	Refresh(round int, s *core.State, up *UpSet) []float64
	// Name identifies the tuner in reports.
	Name() string
}

// PooledTuner is implemented by tuners whose per-resource sweeps
// (decaying averages, diffusion steps) can run on the engine's worker
// pool. RefreshPooled must return bit-identical vectors for every
// worker count, including the plain Refresh path — each output entry
// is computed by exactly one worker with a fixed-order inner loop.
type PooledTuner interface {
	Tuner
	RefreshPooled(round int, s *core.State, up *UpSet, pool *par.Pool) []float64
}

// SpeedAwareTuner is implemented by tuners that generalise their
// estimates to heterogeneous fleets. The engine calls SetSpeeds with
// the validated per-resource speed profile before the first round
// (only when Config.Speeds is set), and the tuner must thereafter
// target the speed-proportional thresholds
//
//	T_r = (1+ε)·(W/S_up)·s_r + wmax,  S_up = Σ_{up} s_r
//
// — the core.Proportional shape restricted to the live capacity —
// instead of the uniform (1+ε)·W/n_up + wmax.
type SpeedAwareTuner interface {
	Tuner
	SetSpeeds(speeds []float64)
}

// OracleTuner recomputes the thresholds every Every rounds from the
// exact in-flight weight — centralised knowledge, the upper baseline
// the decentralised tuner is measured against. Homogeneous fleets get
// the uniform T = (1+Eps)·W(t)/n_up + wmax; with a speed profile set
// the vector is core.Proportional restricted to the up capacity,
// T_r = (1+Eps)·W(t)·s_r/S_up + wmax.
type OracleTuner struct {
	Eps    float64 // threshold slack, > 0
	Every  int     // refresh period in rounds; 0 means every round
	speeds []float64
	thr    []float64
}

// SetSpeeds implements SpeedAwareTuner.
func (o *OracleTuner) SetSpeeds(speeds []float64) { o.speeds = speeds }

// Refresh implements Tuner.
func (o *OracleTuner) Refresh(round int, s *core.State, up *UpSet) []float64 {
	if !(o.Eps > 0) {
		panic("dynamic: OracleTuner.Eps must be > 0")
	}
	every := o.Every
	if every <= 0 {
		every = 1
	}
	if round%every != 0 {
		return nil
	}
	n := s.N()
	if o.thr == nil {
		o.thr = make([]float64, n)
	}
	if o.speeds != nil {
		if len(o.speeds) != n {
			panic(fmt.Sprintf("dynamic: OracleTuner has %d speeds for %d resources", len(o.speeds), n))
		}
		sUp := 0.0
		for i := 0; i < up.N(); i++ {
			sUp += o.speeds[up.At(i)]
		}
		prop := core.Proportional{Speeds: o.speeds, Eps: o.Eps}
		prop.ShareInto(o.thr, s.InFlightWeight(), s.LiveWMax(), sUp)
		return o.thr
	}
	t := (1+o.Eps)*s.InFlightWeight()/float64(up.N()) + s.LiveWMax()
	for r := range o.thr {
		o.thr[r] = t
	}
	return o.thr
}

// Validate implements the optional config check.
func (o *OracleTuner) Validate() error {
	if !(o.Eps > 0) {
		return fmt.Errorf("dynamic: OracleTuner.Eps %v must be > 0", o.Eps)
	}
	return nil
}

// Name identifies the tuner.
func (o *OracleTuner) Name() string { return fmt.Sprintf("oracle(eps=%g)", o.Eps) }

// SelfTuner is the decentralised threshold estimator: every resource
// keeps an exponentially decaying average of its own load,
//
//	est_r ← Decay·est_r + (1−Decay)·x_r(t),
//
// and every Every rounds the estimates run Steps rounds of continuous
// diffusion over the resource graph (the paper's footnote-1 substrate),
// concentrating them around the system-wide average load. Each
// resource then sets its own threshold T_r = (1+Eps)·est_r + wmax.
//
// Under resource churn the raw diffusion average is the wrong target:
// down resources hold zero load, so the estimates concentrate around
// W/n instead of the live capacity's W/n_up, and thresholds sag as
// churn deepens. The tuner therefore runs a push-sum style
// renormalisation: alongside est it maintains an identically decayed
// and diffused up-mass vector
//
//	upw_r ← Decay·upw_r + (1−Decay)·1{r up},
//
// and divides the diffused load estimate by the diffused up-mass, so
// each resource's ratio converges to (Σ est)/(Σ upw) ≈ W/n_up with no
// global knowledge. While no resource has ever been down, upw is
// exactly 1 everywhere and the division is skipped, keeping the
// churnless hot path at one diffusion per refresh. No resource ever
// reads global state — arrivals, departures and churn are absorbed by
// the decaying averages, and the slack Eps covers the estimation
// error, exactly as it covers the static estimation error in the
// paper.
//
// Heterogeneous fleets (SetSpeeds) generalise the companion vector
// from up-mass to SPEED-mass: each resource decays
//
//	upw_r ← Decay·upw_r + (1−Decay)·s_r·1{r up},
//
// so the diffused ratio converges to (Σ est)/(Σ s·1{up}) ≈ W/S_up —
// the per-unit-speed fair share — and resource r sets
// T_r = (1+Eps)·(W/S_up)·s_r + wmax, the core.Proportional target
// restricted to the live capacity (Adolphs–Berenbrink's
// speed-proportional thresholds, learned online). The speed-mass
// diffusion always runs in this mode (even churnless, since the load
// average alone diffuses to W/n, not W/S); with no speed profile the
// homogeneous code path is untouched bit for bit.
type SelfTuner struct {
	Eps    float64     // threshold slack, > 0
	Decay  float64     // EWMA decay in (0,1); 0 means the default 0.8
	Every  int         // rounds between diffusion refreshes; default 10
	Steps  int         // diffusion steps per refresh; default 8
	Kernel walk.Kernel // diffusion kernel; required

	speeds []float64 // per-resource speeds; nil = homogeneous

	est []float64
	upw []float64
	thr []float64
	// Diffusion ping-pong buffers, reused across refreshes.
	zEst, zEstNext []float64
	zUp, zUpNext   []float64
	// churned latches once any resource has been observed down; only
	// then is the up-mass diffusion and division paid for. A speed
	// profile latches it from the start — the speed-mass companion is
	// what turns the diffused load average into a per-unit-speed share.
	churned bool

	// Pooled-sweep wiring: the phase closures are bound once and read
	// the fields below, so dispatching a sweep allocates nothing.
	s          *core.State
	up         *UpSet
	pool       *par.Pool
	decayFn    func(int)
	diffuseFn  func(int)
	thrFn      func(int)
	src, dst   []float64
	srcU, dstU []float64
	diffuseUp  bool
}

// NewSelfTuner returns a SelfTuner with the package defaults
// (Decay 0.8, Every 10, Steps 8).
func NewSelfTuner(k walk.Kernel, eps float64) *SelfTuner {
	return &SelfTuner{Eps: eps, Decay: 0.8, Every: 10, Steps: 8, Kernel: k}
}

// SetSpeeds implements SpeedAwareTuner: thresholds thereafter converge
// to the speed-proportional (1+Eps)·(W/S_up)·s_r + wmax targets. Must
// be called before the first Refresh.
func (st *SelfTuner) SetSpeeds(speeds []float64) {
	if st.est != nil {
		panic("dynamic: SelfTuner.SetSpeeds after the first Refresh")
	}
	st.speeds = speeds
}

// Refresh implements Tuner (the single-worker sweep).
func (st *SelfTuner) Refresh(round int, s *core.State, up *UpSet) []float64 {
	return st.RefreshPooled(round, s, up, nil)
}

// RefreshPooled implements PooledTuner. A nil pool runs the sweeps
// inline; any pool produces bit-identical thresholds.
func (st *SelfTuner) RefreshPooled(round int, s *core.State, up *UpSet, pool *par.Pool) []float64 {
	if !(st.Eps > 0) {
		panic("dynamic: SelfTuner.Eps must be > 0")
	}
	if st.Kernel == nil {
		panic("dynamic: SelfTuner.Kernel is required")
	}
	if !(st.Decay >= 0 && st.Decay < 1) {
		panic("dynamic: SelfTuner.Decay must be in [0,1)")
	}
	every := st.Every
	if every <= 0 {
		every = 10
	}
	steps := st.Steps
	if steps <= 0 {
		steps = 8
	}
	n := s.N()
	if st.est == nil {
		if st.speeds != nil && len(st.speeds) != n {
			panic(fmt.Sprintf("dynamic: SelfTuner has %d speeds for %d resources", len(st.speeds), n))
		}
		st.est = make([]float64, n)
		st.upw = make([]float64, n)
		for r := range st.upw {
			// The companion starts at its all-up steady value: up-mass 1
			// on homogeneous fleets, speed-mass s_r on heterogeneous ones.
			st.upw[r] = st.speedOf(r)
		}
		st.thr = make([]float64, n)
		st.zEst = make([]float64, n)
		st.zEstNext = make([]float64, n)
		st.decayFn = st.decayShard
		st.diffuseFn = st.diffuseShard
		st.thrFn = st.thresholdShard
		// Speed-mass must diffuse from round one: the load average alone
		// concentrates around W/n, not the per-unit-speed share W/S.
		st.churned = st.churned || st.speeds != nil
	}
	if up.DownN() > 0 {
		st.churned = true
	}
	if st.churned && st.zUp == nil {
		st.zUp = make([]float64, n)
		st.zUpNext = make([]float64, n)
	}

	st.s, st.up, st.pool = s, up, pool
	defer func() { st.s, st.up, st.pool = nil, nil, nil }()

	st.runShards(st.decayFn)
	if round%every != 0 {
		return nil
	}

	// Diffuse a copy of the estimates (est itself stays the raw EWMA,
	// as in the footnote-1 reading: resources keep their running
	// estimate and simulate diffusion on it at refresh time).
	copy(st.zEst, st.est)
	st.diffuseUp = st.churned
	if st.diffuseUp {
		copy(st.zUp, st.upw)
	}
	for i := 0; i < steps; i++ {
		st.src, st.dst = st.zEst, st.zEstNext
		st.srcU, st.dstU = st.zUp, st.zUpNext
		st.runShards(st.diffuseFn)
		st.zEst, st.zEstNext = st.zEstNext, st.zEst
		if st.diffuseUp {
			st.zUp, st.zUpNext = st.zUpNext, st.zUp
		}
	}
	st.runShards(st.thrFn)
	return st.thr
}

// runShards executes fn over the canonical resource partition — on the
// pool when one is attached, inline otherwise.
func (st *SelfTuner) runShards(fn func(int)) {
	if st.pool == nil {
		fn(0)
		return
	}
	st.pool.Run(st.pool.Workers(), fn)
}

// shardRange returns the resource range shard i covers.
func (st *SelfTuner) shardRange(i int) (int, int) {
	if st.pool == nil {
		return 0, len(st.est)
	}
	return st.pool.Shard(len(st.est), i)
}

// speedOf returns resource r's speed (1 on homogeneous fleets).
func (st *SelfTuner) speedOf(r int) float64 {
	if st.speeds == nil {
		return 1
	}
	return st.speeds[r]
}

func (st *SelfTuner) decayShard(i int) {
	lo, hi := st.shardRange(i)
	decay := st.Decay
	if decay == 0 {
		decay = 0.8
	}
	for r := lo; r < hi; r++ {
		st.est[r] = decay*st.est[r] + (1-decay)*st.s.Load(r)
	}
	if !st.churned {
		return
	}
	for r := lo; r < hi; r++ {
		m := 0.0
		if st.up.Contains(r) {
			m = st.speedOf(r)
		}
		st.upw[r] = decay*st.upw[r] + (1-decay)*m
	}
}

// diffuseShard advances shard i's rows one diffusion step; the
// companion, when it diffuses, shares the estimate's pass over each
// adjacency row.
func (st *SelfTuner) diffuseShard(i int) {
	lo, hi := st.shardRange(i)
	if st.diffuseUp {
		walk.EvolvePairRange(st.Kernel, st.src, st.dst, st.srcU, st.dstU, lo, hi)
		return
	}
	walk.EvolveDistRange(st.Kernel, st.src, st.dst, lo, hi)
}

func (st *SelfTuner) thresholdShard(i int) {
	lo, hi := st.shardRange(i)
	wmax := st.s.LiveWMax()
	if !st.diffuseUp {
		for r := lo; r < hi; r++ {
			st.thr[r] = (1+st.Eps)*st.zEst[r] + wmax
		}
		return
	}
	if st.speeds != nil {
		// zEst/mass ≈ W/S_up, the per-unit-speed share; resource r's
		// threshold is its Proportional target (W/S_up)·s_r plus slack.
		for r := lo; r < hi; r++ {
			mass := st.zUp[r]
			if mass < 1e-12 {
				mass = 1e-12 // a resource diffusively isolated from all live mass
			}
			st.thr[r] = (1+st.Eps)*st.zEst[r]/mass*st.speeds[r] + wmax
		}
		return
	}
	for r := lo; r < hi; r++ {
		mass := st.zUp[r]
		if mass < 1e-12 {
			mass = 1e-12 // a resource diffusively isolated from all live mass
		}
		st.thr[r] = (1+st.Eps)*st.zEst[r]/mass + wmax
	}
}

// Validate implements the optional config check.
func (st *SelfTuner) Validate() error {
	switch {
	case !(st.Eps > 0):
		return fmt.Errorf("dynamic: SelfTuner.Eps %v must be > 0", st.Eps)
	case st.Kernel == nil:
		return errors.New("dynamic: SelfTuner.Kernel is required")
	case !(st.Decay >= 0 && st.Decay < 1):
		return fmt.Errorf("dynamic: SelfTuner.Decay %v must be in [0,1) (0 selects the default 0.8)", st.Decay)
	}
	return nil
}

// Name identifies the tuner.
func (st *SelfTuner) Name() string {
	return fmt.Sprintf("self-tuned(eps=%g,decay=%g)", st.Eps, st.Decay)
}
