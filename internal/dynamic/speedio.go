package dynamic

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/lineio"
)

// Speed-profile ingestion: heterogeneous fleets are described by
// (resource, speed) records, mirroring the arrival-trace formats —
//
//	CSV:   resource,speed      (optional "resource,speed" header)
//	JSONL: {"resource":3,"speed":2.5}   one object per line
//
// The loader densifies the records into a length-n speed vector;
// resources the file does not mention default to speed 1, so a profile
// only has to list the machines that differ from the unit baseline.
// Speeds must be positive and finite, resource indices must lie in
// [0, n), and duplicates are an error — malformed profiles fail at
// load time with line numbers, never mid-run.

// ValidSpeed reports whether s is a usable resource speed: positive
// and finite. s > 0 is false for NaN, so NaN needs no separate test.
func ValidSpeed(s float64) bool { return s > 0 && !math.IsInf(s, 0) }

// speedVec densifies parsed (resource, speed) records, validating
// range, value and uniqueness. seen doubles as the duplicate tracker.
type speedVec struct {
	v    []float64
	seen []bool
}

func newSpeedVec(n int) *speedVec {
	sv := &speedVec{v: make([]float64, n), seen: make([]bool, n)}
	for i := range sv.v {
		sv.v[i] = 1
	}
	return sv
}

func (sv *speedVec) set(resource int, speed float64) error {
	if resource < 0 || resource >= len(sv.v) {
		return fmt.Errorf("resource %d out of range [0, %d)", resource, len(sv.v))
	}
	if !ValidSpeed(speed) {
		return fmt.Errorf("speed %v of resource %d must be positive and finite", speed, resource)
	}
	if sv.seen[resource] {
		return fmt.Errorf("duplicate record for resource %d", resource)
	}
	sv.seen[resource] = true
	sv.v[resource] = speed
	return nil
}

// ReadSpeedsCSV parses resource,speed records from r into a length-n
// speed vector (unlisted resources get speed 1).
func ReadSpeedsCSV(r io.Reader, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dynamic: speeds csv: need a positive resource count, got %d", n)
	}
	sv := newSpeedVec(n)
	err := lineio.CSV(r, 2, "resource", func(_ int, f []string) error {
		resource, err := strconv.Atoi(f[0])
		if err != nil {
			return fmt.Errorf("bad resource %q", f[0])
		}
		speed, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return fmt.Errorf("bad speed %q", f[1])
		}
		return sv.set(resource, speed)
	})
	if err != nil {
		return nil, fmt.Errorf("dynamic: speeds csv %w", err)
	}
	return sv.v, nil
}

// speedRecord is one parsed (resource, speed) entry. The fields are
// pointers so a record that omits a key fails loudly instead of
// silently re-speeding resource 0 (the int zero value).
type speedRecord struct {
	Resource *int     `json:"resource"`
	Speed    *float64 `json:"speed"`
}

// ReadSpeedsJSONL parses one {"resource":r,"speed":s} object per line
// into a length-n speed vector (unlisted resources get speed 1).
func ReadSpeedsJSONL(r io.Reader, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dynamic: speeds jsonl: need a positive resource count, got %d", n)
	}
	sv := newSpeedVec(n)
	err := lineio.JSONL(r, lineio.MaxLine, func(_ int, rec *speedRecord) error {
		if rec.Resource == nil || rec.Speed == nil {
			return fmt.Errorf("record must carry both \"resource\" and \"speed\"")
		}
		return sv.set(*rec.Resource, *rec.Speed)
	})
	if err != nil {
		return nil, fmt.Errorf("dynamic: speeds jsonl %w", err)
	}
	return sv.v, nil
}

// LoadSpeedsFile reads an n-resource speed profile from path, picking
// the format by extension: .csv → CSV, .jsonl/.ndjson/.json → JSONL.
func LoadSpeedsFile(path string, n int) ([]float64, error) {
	return lineio.Load("dynamic: speeds", path,
		func(r io.Reader) ([]float64, error) { return ReadSpeedsCSV(r, n) },
		func(r io.Reader) ([]float64, error) { return ReadSpeedsJSONL(r, n) })
}
