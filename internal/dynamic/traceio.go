package dynamic

import (
	"fmt"
	"io"
	"path/filepath"
	"strconv"

	"repro/internal/lineio"
	"repro/internal/task"
)

// Trace ingestion: production arrival logs replay through the engine
// as (round, weight) records. Two line formats are supported —
//
//	CSV:   round,weight        (optional "round,weight" header)
//	JSONL: {"round":12,"weight":2.5}   one object per line
//
// Records may arrive in any round order; the loader buckets them into
// Trace.Rounds. Weights are validated against the library's wmin ≥ 1
// normalisation up front, with line numbers in every error, so a bad
// log fails at load time instead of mid-replay.

// traceRecord is one parsed (round, weight) entry.
type traceRecord struct {
	Round  int
	Weight float64
}

// ReadTraceCSV parses round,weight records from r into a Trace.
func ReadTraceCSV(r io.Reader, label string) (Trace, error) {
	var recs []traceRecord
	err := lineio.CSV(r, 2, "round", func(_ int, f []string) error {
		round, err := strconv.Atoi(f[0])
		if err != nil {
			return fmt.Errorf("bad round %q", f[0])
		}
		weight, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return fmt.Errorf("bad weight %q", f[1])
		}
		if err := checkTraceRecord(round, weight); err != nil {
			return err
		}
		recs = append(recs, traceRecord{Round: round, Weight: weight})
		return nil
	})
	if err != nil {
		return Trace{}, fmt.Errorf("dynamic: trace csv %w", err)
	}
	return bucketTrace(recs, label), nil
}

// traceLine is one JSONL trace record. The fields are pointers so a
// record that omits a key fails loudly instead of silently landing in
// round 0 with the zero value.
type traceLine struct {
	Round  *int     `json:"round"`
	Weight *float64 `json:"weight"`
}

// ReadTraceJSONL parses one {"round":r,"weight":w} object per line.
func ReadTraceJSONL(r io.Reader, label string) (Trace, error) {
	var recs []traceRecord
	err := lineio.JSONL(r, lineio.MaxLine, func(_ int, rec *traceLine) error {
		if rec.Round == nil || rec.Weight == nil {
			return fmt.Errorf("record must carry both \"round\" and \"weight\"")
		}
		if err := checkTraceRecord(*rec.Round, *rec.Weight); err != nil {
			return err
		}
		recs = append(recs, traceRecord{Round: *rec.Round, Weight: *rec.Weight})
		return nil
	})
	if err != nil {
		return Trace{}, fmt.Errorf("dynamic: trace jsonl %w", err)
	}
	return bucketTrace(recs, label), nil
}

// LoadTraceFile reads a trace from path, picking the format by
// extension: .csv → CSV, .jsonl/.ndjson/.json → JSONL. The trace label
// defaults to the file's base name.
func LoadTraceFile(path string) (Trace, error) {
	label := filepath.Base(path)
	return lineio.Load("dynamic: trace", path,
		func(r io.Reader) (Trace, error) { return ReadTraceCSV(r, label) },
		func(r io.Reader) (Trace, error) { return ReadTraceJSONL(r, label) })
}

func checkTraceRecord(round int, weight float64) error {
	if round < 0 {
		return fmt.Errorf("negative round %d", round)
	}
	if !task.ValidWeight(weight) {
		return fmt.Errorf("weight %v is below 1 (or not finite)", weight)
	}
	return nil
}

// bucketTrace groups records by round, preserving file order within a
// round (the order tasks of one round enter the dispatcher).
func bucketTrace(recs []traceRecord, label string) Trace {
	maxRound := -1
	for _, rec := range recs {
		if rec.Round > maxRound {
			maxRound = rec.Round
		}
	}
	rounds := make([][]float64, maxRound+1)
	for _, rec := range recs {
		rounds[rec.Round] = append(rounds[rec.Round], rec.Weight)
	}
	return Trace{Rounds: rounds, Label: label}
}
