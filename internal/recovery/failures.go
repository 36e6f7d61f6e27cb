package recovery

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dynamic"
	"repro/internal/rng"
)

// FailureModel describes correlated, topology-aware stochastic failure
// and repair processes. It does NOT run inside the engine: Compile
// turns it into a concrete one-shot ChurnEvent schedule for a fixed
// horizon, drawn from its own deterministic streams, so a correlated
// failure trace is an ordinary scripted input — replay stays
// bit-for-bit identical for any worker count, the schedule passes the
// engine's config-time validation by construction, and the same trace
// can be rerun against every re-home policy.
//
// Three alternating-renewal process families compose (all times are
// exponential, in rounds):
//
//   - rack loss: each rack independently fails as a unit (mean up time
//     RackMTBF), taking every currently-up member down in one round,
//     and is repaired after mean RackMTTR — the mass-failure burst;
//   - machine churn: each resource independently fails (ResourceMTBF)
//     and recovers (ResourceMTTR) — the uncorrelated background;
//   - flapping: FlapResources machines, picked uniformly at random,
//     cycle with short means FlapMTBF/FlapMTTR — the pathological
//     fast-churn clients that stress the evacuation path.
//
// Overlaps resolve by state: a transition that finds its resource
// already in the target state is dropped (a rack repair revives only
// the members still down, a machine-level failure inside an already
// dead rack is absorbed), which is exactly the drop rule
// dynamic.ValidateEvents enforces.
type FailureModel struct {
	Topo *Topology // required

	RackMTBF, RackMTTR         float64 // rack-loss process; 0,0 disables
	ResourceMTBF, ResourceMTTR float64 // machine-level process; 0,0 disables
	FlapResources              int     // number of flapping machines; 0 disables
	FlapMTBF, FlapMTTR         float64 // flapper up/down means
}

// Validate checks the model's parameters.
func (m FailureModel) Validate() error {
	if m.Topo == nil {
		return errors.New("recovery: FailureModel needs a Topology")
	}
	check := func(label string, mtbf, mttr float64, enabled bool) error {
		if !enabled {
			if mtbf != 0 || mttr != 0 {
				return fmt.Errorf("recovery: FailureModel %s MTBF/MTTR must both be set or both be zero (got %g/%g)", label, mtbf, mttr)
			}
			return nil
		}
		if mtbf <= 0 || mttr <= 0 {
			return fmt.Errorf("recovery: FailureModel %s MTBF/MTTR must be positive (got %g/%g)", label, mtbf, mttr)
		}
		return nil
	}
	if err := check("rack", m.RackMTBF, m.RackMTTR, m.RackMTBF > 0 && m.RackMTTR > 0); err != nil {
		return err
	}
	if err := check("resource", m.ResourceMTBF, m.ResourceMTTR, m.ResourceMTBF > 0 && m.ResourceMTTR > 0); err != nil {
		return err
	}
	if m.FlapResources < 0 || m.FlapResources > m.Topo.N() {
		return fmt.Errorf("recovery: FailureModel.FlapResources %d out of range [0, %d]", m.FlapResources, m.Topo.N())
	}
	if m.FlapResources > 0 {
		if !(m.FlapMTBF > 0 && m.FlapMTTR > 0) {
			return fmt.Errorf("recovery: FailureModel flap MTBF/MTTR must be positive (got %g/%g)", m.FlapMTBF, m.FlapMTTR)
		}
	}
	if m.RackMTBF == 0 && m.ResourceMTBF == 0 && m.FlapResources == 0 {
		return errors.New("recovery: FailureModel enables no failure process")
	}
	return nil
}

// Stream-id bases for Compile's deterministic draws, far above the
// engine's own 0..n+3 stream ids so compiled schedules and run-time
// randomness never share a stream.
const (
	rackStreamBase uint64 = 0x5241434b << 32 // "RACK"
	resStreamBase  uint64 = 0x4d414348 << 32 // "MACH"
	flapStreamBase uint64 = 0x464c4150 << 32 // "FLAP"
)

// transition is one raw compiled up/down edge before conflict
// resolution.
type transition struct {
	round int
	kill  bool
	seq   int // global emission order (deterministic tiebreak)
	rack  int // −1 for a single-resource transition
	res   int // the resource, when rack < 0
}

// Compile draws the model's processes over rounds [0, horizon) and
// returns the resulting one-shot ChurnEvent schedule, sorted by round.
// The schedule is a pure function of (model, horizon, seed).
func (m FailureModel) Compile(horizon int, seed uint64) ([]dynamic.ChurnEvent, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("recovery: Compile horizon must be > 0, got %d", horizon)
	}
	t := m.Topo
	var trans []transition
	seq := 0
	emit := func(rr *rng.Rand, mtbf, mttr float64, rack, res int) {
		// Alternating renewal: up for Exp(mtbf), down for Exp(mttr).
		// Rounds are integral, so transitions clamp to strictly
		// increasing rounds — a repair never lands in (or before) its
		// failure's round.
		now := 0.0
		last := -1
		for {
			now += rr.ExpFloat64() * mtbf
			down := int(now)
			if down <= last {
				down = last + 1
			}
			if down >= horizon {
				return
			}
			trans = append(trans, transition{round: down, kill: true, seq: seq, rack: rack, res: res})
			seq++
			if now < float64(down) {
				now = float64(down)
			}
			now += rr.ExpFloat64() * mttr
			up := int(now)
			if up <= down {
				up = down + 1
			}
			last = up
			if up >= horizon {
				return
			}
			trans = append(trans, transition{round: up, kill: false, seq: seq, rack: rack, res: res})
			seq++
			if now < float64(up) {
				now = float64(up)
			}
		}
	}
	if m.RackMTBF > 0 {
		for k := 0; k < t.Racks(); k++ {
			emit(rng.Stream(seed, rackStreamBase+uint64(k)), m.RackMTBF, m.RackMTTR, k, -1)
		}
	}
	if m.ResourceMTBF > 0 {
		for r := 0; r < t.N(); r++ {
			emit(rng.Stream(seed, resStreamBase+uint64(r)), m.ResourceMTBF, m.ResourceMTTR, -1, r)
		}
	}
	if m.FlapResources > 0 {
		// Pick the flappers by partial Fisher–Yates on a dedicated
		// stream, then run each on its own.
		pick := rng.Stream(seed, flapStreamBase)
		idx := make([]int, t.N())
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < m.FlapResources; i++ {
			j := i + pick.Intn(t.N()-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		for i := 0; i < m.FlapResources; i++ {
			f := idx[i]
			emit(rng.Stream(seed, flapStreamBase+1+uint64(f)), m.FlapMTBF, m.FlapMTTR, -1, f)
		}
	}

	// Global order: by round; within a round all kills before all
	// repairs (the engine's application order); ties broken by emission
	// sequence so the result is deterministic.
	sort.Slice(trans, func(i, j int) bool {
		a, b := trans[i], trans[j]
		if a.round != b.round {
			return a.round < b.round
		}
		if a.kill != b.kill {
			return a.kill
		}
		return a.seq < b.seq
	})

	// Conflict resolution: walk the schedule, tracking every resource's
	// compiled state, and keep only transitions that change it. A
	// kill+repair pair landing on the same resource in the same round
	// (two overlapping processes) cancels outright — the engine would
	// evacuate nothing for it anyway, and ValidateEvents rightly lints
	// a list that both kills and revives one resource in one event.
	down := make([]bool, t.N())
	downIdx := map[int]int{} // resource → index in the CURRENT event's DownList
	apply := func(res int, kill bool, ev *dynamic.ChurnEvent) {
		if down[res] == kill {
			return // already in the target state: dropped
		}
		down[res] = kill
		if kill {
			downIdx[res] = len(ev.DownList)
			ev.DownList = append(ev.DownList, res)
			return
		}
		if i, ok := downIdx[res]; ok { // killed earlier this round: cancel
			last := len(ev.DownList) - 1
			moved := ev.DownList[last]
			ev.DownList[i] = moved
			downIdx[moved] = i
			ev.DownList = ev.DownList[:last]
			delete(downIdx, res)
			return
		}
		ev.UpList = append(ev.UpList, res)
	}
	var events []dynamic.ChurnEvent
	for i := 0; i < len(trans); {
		ev := dynamic.ChurnEvent{Round: trans[i].round}
		clear(downIdx)
		for ; i < len(trans) && trans[i].round == ev.Round; i++ {
			tr := trans[i]
			if tr.rack >= 0 {
				for _, r := range t.RackMembers(tr.rack) {
					apply(int(r), tr.kill, &ev)
				}
			} else {
				apply(tr.res, tr.kill, &ev)
			}
		}
		if len(ev.DownList) > 0 || len(ev.UpList) > 0 {
			events = append(events, ev)
		}
	}
	return events, nil
}
