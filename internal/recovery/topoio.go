package recovery

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/lineio"
)

// Topology ingestion: fleet inventories are described by per-resource
// failure-domain records, mirroring the engine's trace and speed
// formats —
//
//	CSV:   resource,rack,zone    (optional "resource,rack,zone" header;
//	                              each row assigns one resource and
//	                              implicitly defines its rack's zone)
//	JSONL: {"rack":"r1","zone":"z1"}      defines rack r1 in zone z1
//	       {"resource":0,"rack":"r1"}     assigns resource 0 to rack r1
//	                                      (definitions may appear after
//	                                      the assignments that use them)
//
// The loaders validate the hierarchy up front, with line numbers in
// every error, so a broken inventory fails at load time instead of
// mid-run: every resource index must lie in [0, n) and appear exactly
// once, every rack an assignment names must be defined (JSONL),
// re-defining a rack into a different zone is an error, and the
// rack/zone namespaces must be disjoint — a name used both as a rack
// and as a zone would let resource → rack → zone chains cycle, so the
// builder rejects it (the cycle-free check). Unassigned resources are
// an error: a failure model must know every machine's blast radius.

// topoBuilder accumulates and validates loader records.
type topoBuilder struct {
	n          int
	rackIdx    map[string]int
	zoneIdx    map[string]int
	isZone     map[string]bool // names used as zones (cycle check)
	zoneOfRack []int32
	rackNames  []string
	zoneNames  []string
	assignRack []string // rack name per resource ("" = unassigned), resolved at finish
	assignLine []int    // line each resource was assigned on
}

func newTopoBuilder(n int) *topoBuilder {
	return &topoBuilder{
		n:          n,
		rackIdx:    map[string]int{},
		zoneIdx:    map[string]int{},
		isZone:     map[string]bool{},
		assignRack: make([]string, n),
		assignLine: make([]int, n),
	}
}

// defineRack records rack → zone. Re-definition into the same zone is
// idempotent (the CSV format repeats it on every row); a different
// zone, or a name crossing the rack/zone namespaces, is an error.
func (b *topoBuilder) defineRack(rack, zone string) error {
	if rack == "" || zone == "" {
		return fmt.Errorf("rack and zone names must be non-empty")
	}
	if rack == zone {
		return fmt.Errorf("name %q used as both a rack and a zone: the rack→zone hierarchy must be cycle-free", rack)
	}
	if b.isZone[rack] {
		return fmt.Errorf("name %q used as both a rack and a zone: the rack→zone hierarchy must be cycle-free", rack)
	}
	if _, clash := b.rackIdx[zone]; clash {
		return fmt.Errorf("name %q used as both a rack and a zone: the rack→zone hierarchy must be cycle-free", zone)
	}
	zi, ok := b.zoneIdx[zone]
	if !ok {
		zi = len(b.zoneNames)
		b.zoneIdx[zone] = zi
		b.zoneNames = append(b.zoneNames, zone)
		b.isZone[zone] = true
	}
	if ri, ok := b.rackIdx[rack]; ok {
		if b.zoneOfRack[ri] != int32(zi) {
			return fmt.Errorf("rack %q reassigned from zone %q to %q",
				rack, b.zoneNames[b.zoneOfRack[ri]], zone)
		}
		return nil
	}
	b.rackIdx[rack] = len(b.rackNames)
	b.rackNames = append(b.rackNames, rack)
	b.zoneOfRack = append(b.zoneOfRack, int32(zi))
	return nil
}

// assignResource records resource → rack by name; the rack may be
// defined later in the file (JSONL), so resolution happens in finish.
func (b *topoBuilder) assignResource(resource int, rack string, line int) error {
	if resource < 0 || resource >= b.n {
		return fmt.Errorf("resource %d out of range [0, %d)", resource, b.n)
	}
	if rack == "" {
		return fmt.Errorf("rack name must be non-empty")
	}
	if b.assignRack[resource] != "" {
		return fmt.Errorf("duplicate record for resource %d (first assigned on line %d)",
			resource, b.assignLine[resource])
	}
	b.assignRack[resource] = rack
	b.assignLine[resource] = line
	return nil
}

// finish resolves rack names and builds the Topology.
func (b *topoBuilder) finish() (*Topology, error) {
	rackOf := make([]int32, b.n)
	for r := 0; r < b.n; r++ {
		name := b.assignRack[r]
		if name == "" {
			return nil, fmt.Errorf("resource %d has no rack assignment", r)
		}
		ri, ok := b.rackIdx[name]
		if !ok {
			return nil, fmt.Errorf("line %d: resource %d assigned to unknown rack %q",
				b.assignLine[r], r, name)
		}
		rackOf[r] = int32(ri)
	}
	return newTopology(rackOf, b.zoneOfRack, b.rackNames, b.zoneNames), nil
}

// ReadTopologyCSV parses resource,rack,zone records from r into a
// Topology over n resources.
func ReadTopologyCSV(r io.Reader, n int) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("recovery: topology csv: need a positive resource count, got %d", n)
	}
	b := newTopoBuilder(n)
	err := lineio.CSV(r, 3, "resource", func(line int, f []string) error {
		resource, err := strconv.Atoi(f[0])
		if err != nil {
			return fmt.Errorf("bad resource %q", f[0])
		}
		if err := b.defineRack(f[1], f[2]); err != nil {
			return err
		}
		return b.assignResource(resource, f[1], line)
	})
	if err != nil {
		return nil, fmt.Errorf("recovery: topology csv %w", err)
	}
	t, err := b.finish()
	if err != nil {
		return nil, fmt.Errorf("recovery: topology csv: %w", err)
	}
	return t, nil
}

// topoRecord is one parsed JSONL line: either a rack definition
// (rack+zone) or a resource assignment (resource+rack). Pointer fields
// make omitted keys detectable.
type topoRecord struct {
	Resource *int    `json:"resource"`
	Rack     *string `json:"rack"`
	Zone     *string `json:"zone"`
}

// ReadTopologyJSONL parses one rack-definition or resource-assignment
// object per line into a Topology over n resources.
func ReadTopologyJSONL(r io.Reader, n int) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("recovery: topology jsonl: need a positive resource count, got %d", n)
	}
	b := newTopoBuilder(n)
	err := lineio.JSONL(r, lineio.MaxLine, func(line int, rec *topoRecord) error {
		switch {
		case rec.Rack == nil:
			return fmt.Errorf("record must carry \"rack\"")
		case rec.Resource != nil && rec.Zone != nil:
			return fmt.Errorf("record carries both \"resource\" and \"zone\" — use one rack-definition line and one assignment line")
		case rec.Zone != nil:
			return b.defineRack(*rec.Rack, *rec.Zone)
		case rec.Resource != nil:
			return b.assignResource(*rec.Resource, *rec.Rack, line)
		default:
			return fmt.Errorf("record must carry \"zone\" (rack definition) or \"resource\" (assignment)")
		}
	})
	if err != nil {
		return nil, fmt.Errorf("recovery: topology jsonl %w", err)
	}
	t, err := b.finish()
	if err != nil {
		return nil, fmt.Errorf("recovery: topology jsonl: %w", err)
	}
	return t, nil
}

// LoadTopologyFile reads an n-resource topology from path, picking the
// format by extension: .csv → CSV, .jsonl/.ndjson/.json → JSONL.
func LoadTopologyFile(path string, n int) (*Topology, error) {
	return lineio.Load("recovery: topology", path,
		func(r io.Reader) (*Topology, error) { return ReadTopologyCSV(r, n) },
		func(r io.Reader) (*Topology, error) { return ReadTopologyJSONL(r, n) })
}
