package recovery

import (
	"errors"
	"fmt"

	"repro/internal/dynamic"
	"repro/internal/snapshot"
)

// Snapshot implements dynamic.SnapshotStater. The per-rack and
// per-zone up-member lists are maintained by swap-remove, so their
// ORDER is a function of the whole churn history — and Pick draws
// uniform indexes into them. Replaying ResetUp + the down set would
// rebuild the same membership in a different order and silently
// divert every subsequent pick, so the lists (and the position indexes
// that keep swap-remove O(1)) are recorded verbatim. Reading requires
// the checkpointed run's Topology; the rack and zone counts are
// checked against it before any list is read.
func (l *Locality) Snapshot(c *snapshot.Codec) error {
	if c.Reading() && l.Topo == nil {
		return errors.New("recovery: Locality snapshot restore needs a Topology")
	}
	inited := l.rackUp != nil
	c.Bool(&inited)
	if !inited || c.Err() != nil {
		return c.Err()
	}
	t := l.Topo
	if l.rackUp == nil {
		l.ResetUp(t.N())
	}
	racks := len(l.rackUp)
	c.Len(&racks, 4)
	if racks != t.Racks() {
		return fmt.Errorf("recovery: snapshot covers %d racks, topology has %d", racks, t.Racks())
	}
	for k := range l.rackUp {
		c.Int32s(&l.rackUp[k])
	}
	zones := len(l.zoneUp)
	c.Len(&zones, 4)
	if zones != t.Zones() {
		return fmt.Errorf("recovery: snapshot covers %d zones, topology has %d", zones, t.Zones())
	}
	for z := range l.zoneUp {
		c.Int32s(&l.zoneUp[z])
	}
	c.Int32s(&l.posRack)
	c.Int32s(&l.posZone)
	if c.Reading() && (len(l.posRack) != t.N() || len(l.posZone) != t.N()) {
		return fmt.Errorf("recovery: snapshot position vectors cover %d/%d resources, topology has %d",
			len(l.posRack), len(l.posZone), t.N())
	}
	return c.Err()
}

// Interface conformance, pinned at compile time.
var _ dynamic.SnapshotStater = (*Locality)(nil)
