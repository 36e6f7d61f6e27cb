package recovery

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/rng"
)

// Locality is the topology-aware re-home policy: a task evacuated off
// a failed resource lands on a uniformly random UP resource in the
// same rack; if the whole rack is down (the rack-loss case), in the
// same zone; if the zone is gone, anywhere — the graph-neighbours-
// first recovery rule of the network threshold games, expressed over
// failure domains. Locality keeps displaced work close (cheap
// migrations, warm caches, intact zone-local state) at the cost of
// concentrating a rack's fallout inside one zone; the dynrecover
// experiment quantifies that trade against the load- and speed-aware
// policies.
//
// Implementation: per-rack and per-zone compact up-member lists,
// maintained incrementally through the engine's RehomeObserver
// callbacks (which run in the sequential churn phase), so Pick is an
// O(1), allocation-free read that the parallel evacuation shards can
// issue concurrently. Each pick draws only from the failed resource's
// own stream, preserving the engine's cross-worker determinism for
// this policy like any other.
//
// A Locality value is stateful: like tuners, use a fresh value (or at
// least a separate one) per concurrent run.
type Locality struct {
	Topo *Topology // required; its N must match the run's resource count

	rackUp  [][]int32 // per-rack up members, compact
	zoneUp  [][]int32 // per-zone up members, compact
	posRack []int32   // resource → index in its rack's up list (−1 when down)
	posZone []int32   // resource → index in its zone's up list (−1 when down)
}

// Validate implements the optional config check.
func (l *Locality) Validate() error {
	if l.Topo == nil {
		return errors.New("recovery: Locality needs a Topology")
	}
	return nil
}

// ValidateFor implements the engine's size-aware config check: the
// topology must cover exactly the run's resources, caught before the
// run starts rather than as a mid-run panic.
func (l *Locality) ValidateFor(n int) error {
	if l.Topo != nil && l.Topo.N() != n {
		return fmt.Errorf("recovery: Locality topology covers %d resources, run has %d", l.Topo.N(), n)
	}
	return nil
}

// ResetUp implements dynamic.RehomeObserver: all n resources start up.
func (l *Locality) ResetUp(n int) {
	if l.Topo == nil {
		panic("recovery: Locality needs a Topology")
	}
	if n != l.Topo.N() {
		panic(fmt.Sprintf("recovery: Locality topology covers %d resources, run has %d", l.Topo.N(), n))
	}
	t := l.Topo
	if l.rackUp == nil {
		l.rackUp = make([][]int32, t.Racks())
		l.zoneUp = make([][]int32, t.Zones())
		l.posRack = make([]int32, n)
		l.posZone = make([]int32, n)
	}
	for k := range l.rackUp {
		l.rackUp[k] = append(l.rackUp[k][:0], t.RackMembers(k)...)
		for i, r := range l.rackUp[k] {
			l.posRack[r] = int32(i)
		}
	}
	for z := range l.zoneUp {
		l.zoneUp[z] = append(l.zoneUp[z][:0], t.ZoneMembers(z)...)
		for i, r := range l.zoneUp[z] {
			l.posZone[r] = int32(i)
		}
	}
}

// ResourceDown implements dynamic.RehomeObserver (swap-remove from the
// rack and zone lists).
func (l *Locality) ResourceDown(r int) {
	k, z := l.Topo.RackOf(r), l.Topo.ZoneOf(r)
	l.rackUp[k] = swapRemove(l.rackUp[k], l.posRack, r)
	l.posRack[r] = -1
	l.zoneUp[z] = swapRemove(l.zoneUp[z], l.posZone, r)
	l.posZone[r] = -1
}

// ResourceUp implements dynamic.RehomeObserver.
func (l *Locality) ResourceUp(r int) {
	k, z := l.Topo.RackOf(r), l.Topo.ZoneOf(r)
	l.posRack[r] = int32(len(l.rackUp[k]))
	l.rackUp[k] = append(l.rackUp[k], int32(r))
	l.posZone[r] = int32(len(l.zoneUp[z]))
	l.zoneUp[z] = append(l.zoneUp[z], int32(r))
}

// swapRemove removes resource r from a compact membership list,
// keeping pos in sync for the element swapped into r's slot.
func swapRemove(list []int32, pos []int32, r int) []int32 {
	i := pos[r]
	last := len(list) - 1
	moved := list[last]
	list[i] = moved
	pos[moved] = i
	return list[:last]
}

// Pick implements dynamic.Dispatch for the re-home slot: same rack,
// then same zone, then anywhere.
func (l *Locality) Pick(s *core.State, up *dynamic.UpSet, speeds []float64, from int, w float64, rr *rng.Rand) int {
	k := l.Topo.RackOf(from)
	if list := l.rackUp[k]; len(list) > 0 {
		return int(list[rr.Intn(len(list))])
	}
	if list := l.zoneUp[l.Topo.ZoneOfRack(k)]; len(list) > 0 {
		return int(list[rr.Intn(len(list))])
	}
	return up.Random(rr)
}

// Name identifies the policy.
func (*Locality) Name() string { return "locality" }

// Interface conformance, pinned at compile time.
var (
	_ dynamic.Dispatch       = (*Locality)(nil)
	_ dynamic.RehomeObserver = (*Locality)(nil)
)
