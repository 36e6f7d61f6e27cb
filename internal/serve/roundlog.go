package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/dynamic"
	"repro/internal/lineio"
	"repro/internal/task"
)

// The round log is the twin contract's ground truth: one JSONL record
// per stepped round, written ahead of the step, capturing everything
// the wall clock decided — which arrivals were admitted into which
// round, in what order, and which reconfiguration ops rode along.
// Replaying the records through a fresh engine with the same scenario
// configuration reproduces the live Result bit-for-bit (weights
// round-trip exactly: encoding/json emits the shortest decimal that
// parses back to the same float64).

// RoundRecord is one stepped round's external input.
type RoundRecord struct {
	// Round is the engine round the batch was admitted into. Records
	// are consecutive: empty rounds (ticks with no arrivals) are logged
	// too, because service, churn and balancing ran in them.
	Round int `json:"t"`
	// Weights are the admitted arrival weights in admission order.
	Weights []float64 `json:"w,omitempty"`
	// Down/Up are the reconfiguration ops applied ahead of the round.
	Down []int `json:"down,omitempty"`
	Up   []int `json:"up,omitempty"`
	// Dispatch is a policy swap applied at this round boundary (see
	// ParseDispatch for the grammar); "" = no swap.
	Dispatch string `json:"dispatch,omitempty"`
}

// AppendRecord writes rec as one JSONL line.
func AppendRecord(w io.Writer, rec *RoundRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadRoundLog parses and validates a JSONL round log: records must be
// consecutive ascending rounds, weights valid task weights, op indices
// non-negative and any dispatch string parseable. Malformed input
// errors with the offending line number; it never panics (fuzzed by
// FuzzRoundLog). Lines are unbounded: one record carries a whole
// round's admitted backlog, which may hold up to MaxPending weights.
func ReadRoundLog(r io.Reader) ([]RoundRecord, error) {
	var recs []RoundRecord
	err := lineio.JSONL(r, 0, func(_ int, rec *RoundRecord) error {
		if err := validateRecord(rec, len(recs)); err != nil {
			return err
		}
		recs = append(recs, *rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: round log %w", err)
	}
	return recs, nil
}

func validateRecord(rec *RoundRecord, idx int) error {
	if rec.Round != idx {
		return fmt.Errorf("round %d, want consecutive round %d", rec.Round, idx)
	}
	for i, w := range rec.Weights {
		if !task.ValidWeight(w) {
			return fmt.Errorf("weight %d is %v, violates wmin >= 1", i, w)
		}
	}
	for _, r := range rec.Down {
		if r < 0 {
			return fmt.Errorf("negative drain target %d", r)
		}
	}
	for _, r := range rec.Up {
		if r < 0 {
			return fmt.Errorf("negative add target %d", r)
		}
	}
	if rec.Dispatch != "" {
		if _, err := ParseDispatch(rec.Dispatch); err != nil {
			return err
		}
	}
	return nil
}

// ParseDispatch resolves a dispatch-policy name from the reconfigure
// API / round log. Grammar:
//
//	uniform | hotspot:<resource> | power-of-<d> | speed-weighted
func ParseDispatch(name string) (dynamic.Dispatch, error) {
	switch {
	case name == "uniform":
		return dynamic.UniformDispatch{}, nil
	case name == "speed-weighted":
		return &dynamic.SpeedWeighted{}, nil
	case strings.HasPrefix(name, "hotspot:"):
		r, err := strconv.Atoi(name[len("hotspot:"):])
		if err != nil || r < 0 {
			return nil, fmt.Errorf("serve: bad hotspot resource in dispatch %q", name)
		}
		return dynamic.HotspotDispatch{Resource: r}, nil
	case strings.HasPrefix(name, "power-of-"):
		d, err := strconv.Atoi(name[len("power-of-"):])
		if err != nil || d < 1 {
			return nil, fmt.Errorf("serve: bad choice count in dispatch %q", name)
		}
		return dynamic.PowerOfD{D: d}, nil
	default:
		return nil, fmt.Errorf("serve: unknown dispatch policy %q (want uniform, hotspot:<r>, power-of-<d> or speed-weighted)", name)
	}
}

// RecoverDispatch scans a round log for the dispatch policy in force
// entering `round`: the last swap recorded strictly before it, or ""
// when the scenario's configured policy still applies. Resume-on-boot
// uses it to restore the live policy before stepping resumes.
func RecoverDispatch(recs []RoundRecord, round int) string {
	name := ""
	for i := range recs {
		if recs[i].Round >= round {
			break
		}
		if recs[i].Dispatch != "" {
			name = recs[i].Dispatch
		}
	}
	return name
}
