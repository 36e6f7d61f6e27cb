package dynamic

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// UpSet tracks which resources are currently part of the system,
// supporting O(1) membership, removal, re-insertion and uniform
// sampling of both the up and the down population — the churn
// bookkeeping. Keeping the complement explicit lets the engine rejoin
// a uniform down resource and bounce stray deliveries by walking just
// the down list instead of scanning all n resources every round.
type UpSet struct {
	list []int // compact list of up resources
	down []int // compact list of down resources
	pos  []int // resource → index into list (≥ 0) or ^index into down (< 0)
}

// NewUpSet returns an UpSet with all n resources up.
func NewUpSet(n int) *UpSet {
	u := &UpSet{list: make([]int, n), pos: make([]int, n)}
	for i := 0; i < n; i++ {
		u.list[i] = i
		u.pos[i] = i
	}
	return u
}

// N returns the number of up resources.
func (u *UpSet) N() int { return len(u.list) }

// At returns the i-th up resource (order is arbitrary but stable
// between mutations).
func (u *UpSet) At(i int) int { return u.list[i] }

// DownN returns the number of down resources.
func (u *UpSet) DownN() int { return len(u.down) }

// DownAt returns the i-th down resource (order arbitrary but stable
// between mutations).
func (u *UpSet) DownAt(i int) int { return u.down[i] }

// Contains reports whether resource r is up. Out-of-range indices are
// simply not up (a hotspot pointing outside the graph falls back to
// its uniform pick instead of crashing).
func (u *UpSet) Contains(r int) bool { return r >= 0 && r < len(u.pos) && u.pos[r] >= 0 }

// Random returns a uniformly random up resource. Panics when empty.
func (u *UpSet) Random(r *rng.Rand) int { return u.list[r.Intn(len(u.list))] }

// RandomDown returns a uniformly random down resource. Panics when
// every resource is up.
func (u *UpSet) RandomDown(r *rng.Rand) int { return u.down[r.Intn(len(u.down))] }

// Down removes resource r (swap-remove). Panics if already down.
func (u *UpSet) Down(r int) {
	i := u.pos[r]
	if i < 0 {
		panic(fmt.Sprintf("dynamic: resource %d already down", r))
	}
	last := len(u.list) - 1
	moved := u.list[last]
	u.list[i] = moved
	u.pos[moved] = i
	u.list = u.list[:last]
	u.pos[r] = ^len(u.down)
	u.down = append(u.down, r)
}

// Up re-inserts resource r. Panics if already up.
func (u *UpSet) Up(r int) {
	i := u.pos[r]
	if i >= 0 {
		panic(fmt.Sprintf("dynamic: resource %d already up", r))
	}
	di := ^i
	last := len(u.down) - 1
	moved := u.down[last]
	u.down[di] = moved
	u.pos[moved] = ^di
	u.down = u.down[:last]
	u.pos[r] = len(u.list)
	u.list = append(u.list, r)
}

// snapshot walks the set's three vectors verbatim: uniform draws index
// into list and down, so their order is state. Reading, the vectors
// must cover all n resources; name labels the set in the error.
func (u *UpSet) snapshot(c *snapshot.Codec, n int, name string) {
	c.Ints(&u.list)
	c.Ints(&u.down)
	c.Ints(&u.pos)
	if c.Reading() && (len(u.pos) != n || len(u.list)+len(u.down) != n) {
		c.Fail(fmt.Errorf("dynamic: snapshot %s set covers %d+%d of %d resources", name, len(u.list), len(u.down), n))
	}
}

// Dispatch places a task on an up resource. One set of policies fills
// both of the engine's placement slots: Config.Dispatch routes every
// arrival, and Config.Rehome lands every task evacuated off a resource
// that left the system (a single machine, or a whole rack through a
// scripted or compiled ChurnEvent).
//
// An arrival is placed in the sequential arrival phase, drawing from
// the engine's dispatch stream. An evacuee is placed inside its failed
// resource's shard phase and may draw only from that resource's own
// stream, so the move set is independent of the shard partition and
// the golden cross-worker tests extend to every policy. Pick must
// return an up resource; the engine panics on an evacuee sent to a
// down one rather than strand the task.
type Dispatch interface {
	// Pick returns the destination of one task of weight w: an arrival
	// when from is −1, otherwise an evacuee off the (now down) resource
	// from. speeds is the per-resource speed profile (nil on
	// homogeneous fleets) — load-aware policies should compare
	// load-per-speed, not raw load, so a fast machine's longer queue is
	// not mistaken for congestion. All randomness must come from r.
	Pick(s *core.State, up *UpSet, speeds []float64, from int, w float64, r *rng.Rand) int
	// Name identifies the policy in reports.
	Name() string
}

// RehomeObserver is implemented by stateful re-home policies that track
// the up set incrementally (recovery.Locality's per-domain membership
// lists). The engine calls ResetUp once at run start and ResourceDown/
// ResourceUp for every transition, all from sequential sections — Pick
// only ever reads the state, so the sharded evacuation needs no
// synchronisation. Only the re-home slot hears of transitions, so such
// a policy is a config error as Config.Dispatch.
type RehomeObserver interface {
	// ResetUp marks all n resources up — the run-start state.
	ResetUp(n int)
	// ResourceDown records that resource r left the system.
	ResourceDown(r int)
	// ResourceUp records that resource r rejoined.
	ResourceUp(r int)
}

// UniformDispatch sends each task to a uniformly random up resource —
// the baseline "no ingress knowledge" routing. A nil Config.Dispatch or
// Config.Rehome selects it.
type UniformDispatch struct{}

// Pick implements Dispatch.
func (UniformDispatch) Pick(s *core.State, up *UpSet, speeds []float64, from int, w float64, r *rng.Rand) int {
	return up.Random(r)
}

// Name identifies the policy.
func (UniformDispatch) Name() string { return "uniform" }

// HotspotDispatch sends every task to one ingress resource — the
// dynamic analogue of the paper's single-source placement, the worst
// case that makes the balancing protocol do all the spreading. If the
// hotspot is down, tasks fall back to a uniform pick.
type HotspotDispatch struct {
	Resource int
}

// Pick implements Dispatch.
func (h HotspotDispatch) Pick(s *core.State, up *UpSet, speeds []float64, from int, w float64, r *rng.Rand) int {
	if up.Contains(h.Resource) {
		return h.Resource
	}
	return up.Random(r)
}

// Name identifies the policy.
func (h HotspotDispatch) Name() string { return fmt.Sprintf("hotspot(r=%d)", h.Resource) }

// PowerOfD samples D up resources uniformly and places the task on the
// least loaded — the classic two-choice dispatcher (D = 2), included
// so the dynamic experiments can separate what the dispatcher
// contributes from what threshold migration contributes, and, as a
// re-home policy, a mass evacuation that avoids piling displaced work
// onto machines already near their thresholds. On heterogeneous
// fleets the samples are compared by load-per-speed (x_c/s_c), the
// quantity the speed-proportional thresholds equalise, so the
// placement and the balancer pull toward the same fixed point.
type PowerOfD struct {
	D int // samples per task, ≥ 1
}

// Pick implements Dispatch.
func (p PowerOfD) Pick(s *core.State, up *UpSet, speeds []float64, from int, w float64, r *rng.Rand) int {
	if p.D < 1 {
		panic("dynamic: PowerOfD.D must be >= 1")
	}
	best := up.Random(r)
	if speeds == nil {
		for i := 1; i < p.D; i++ {
			c := up.Random(r)
			if s.Load(c) < s.Load(best) {
				best = c
			}
		}
		return best
	}
	for i := 1; i < p.D; i++ {
		c := up.Random(r)
		if s.Load(c)/speeds[c] < s.Load(best)/speeds[best] {
			best = c
		}
	}
	return best
}

// Validate implements the optional config check.
func (p PowerOfD) Validate() error {
	if p.D < 1 {
		return fmt.Errorf("dynamic: PowerOfD.D %d must be >= 1", p.D)
	}
	return nil
}

// Name identifies the policy.
func (p PowerOfD) Name() string { return fmt.Sprintf("power-of-%d", p.D) }

// SpeedWeighted places each task on an up resource drawn with
// probability proportional to its speed — the "faster machines take
// proportionally more ingress" baseline for heterogeneous fleets,
// which hands the dispatcher exactly the speed-proportional split the
// thresholds target, and lets fast machines absorb proportionally more
// of a dead rack. On a homogeneous fleet (nil speeds) it degrades to
// the uniform pick.
//
// Implemented by exact rejection sampling against the fleet-wide
// maximum speed: expected draws per task are s_max·n_up/S_up — a
// property of the profile, independent of n, and a small constant for
// realistic spreads. The worst case is s_max/s_min draws (an extreme
// spread whose fast class is down, or one fast machine in a sea of
// slow ones); the sampler stays exact rather than capping the loop,
// because a silent fallback would skew ingress away from the
// speed-proportional split precisely on the skewed profiles that need
// it most.
//
// A SpeedWeighted value is stateful (it caches the fleet max speed,
// primed by the engine at run start): like tuners, use a fresh value
// per concurrent run — sharing one across simultaneous runs is a data
// race.
type SpeedWeighted struct {
	// The cached fleet max is keyed by the profile's identity, not
	// computed just once, so a value reused across sequential runs with
	// different speed profiles re-scans instead of skewing the
	// acceptance ratio with a stale bound.
	maxSpeed float64
	profile  *float64 // first element of the cached profile
	n        int
}

// Prime computes and caches the fleet max for the given profile. The
// engine calls it once at run start so the hot path never writes the
// cache; calling it is optional for direct library use (Pick primes
// lazily).
func (sw *SpeedWeighted) Prime(speeds []float64) {
	sw.maxSpeed = 0
	for _, sp := range speeds {
		if sp > sw.maxSpeed {
			sw.maxSpeed = sp
		}
	}
	if len(speeds) > 0 {
		sw.profile = &speeds[0]
	} else {
		sw.profile = nil
	}
	sw.n = len(speeds)
}

// Pick implements Dispatch.
func (sw *SpeedWeighted) Pick(s *core.State, up *UpSet, speeds []float64, from int, w float64, r *rng.Rand) int {
	if len(speeds) == 0 {
		return up.Random(r)
	}
	if sw.profile != &speeds[0] || sw.n != len(speeds) {
		sw.Prime(speeds)
	}
	for {
		c := up.Random(r)
		if speeds[c] == sw.maxSpeed || r.Float64()*sw.maxSpeed < speeds[c] {
			return c
		}
	}
}

// Name identifies the policy.
func (*SpeedWeighted) Name() string { return "speed-weighted" }
