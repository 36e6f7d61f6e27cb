// Package lineio reads the line-oriented input files every loader in
// the module shares — arrival traces, speed profiles, churn schedules,
// topologies, fault plans, round logs, obs events and trace records —
// so each format is a record type plus a row validator, and the rules
// below hold for all of them:
//
//   - one record per line; blank lines and lines starting with '#'
//     are skipped;
//   - JSONL lines decode exactly one value with unknown fields
//     rejected, and anything after it on the line is an error (Lines
//     and Decode are the two halves, for a format that parses its own
//     lines and hands the rest to Decode);
//   - CSV rows have a fixed or free arity, an optional header row
//     named by its first field, and whitespace-trimmed fields;
//   - every error names its 1-based line as "line N: …".
package lineio

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// MaxLine bounds one line of a hand-written or sink-written file,
// newline included, so the longest line accepted is MaxLine-1 bytes.
const MaxLine = 1 << 20

// JSONL decodes one T per line of r and hands it to row with its line
// number. maxLine bounds a line as MaxLine does; 0 means unbounded.
func JSONL[T any](r io.Reader, maxLine int, row func(line int, rec *T) error) error {
	return Lines(r, maxLine, func(line int, text []byte) error {
		var rec T
		if err := Decode(text, &rec); err != nil {
			return err
		}
		return row(line, &rec)
	})
}

// Lines hands each record line of r to fn with its 1-based line
// number: whitespace-trimmed, never empty, never a '#' comment. text
// is only valid until fn returns. maxLine bounds a line as MaxLine
// does; 0 means unbounded. fn's error comes back as "line N: …".
func Lines(r io.Reader, maxLine int, fn func(line int, text []byte) error) error {
	if maxLine <= 0 {
		maxLine = math.MaxInt
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(64*1024, maxLine)), maxLine)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		if err := fn(line, text); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("line %d: exceeds the %d-byte line limit", line+1, maxLine)
	} else if err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return nil
}

// Decode decodes text, which must hold exactly one JSON value, into v,
// rejecting unknown fields. text is expected trimmed: any byte after
// the value, whitespace included, is trailing data.
func Decode(text []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(text))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.InputOffset() != int64(len(text)) {
		return errors.New("trailing data after the record")
	}
	return nil
}

// CSV hands each row of r to row with its line number and its fields
// trimmed. arity is the field count every row must have, or -1 for
// any. A first row whose first field equals header (case-insensitive)
// is skipped.
func CSV(r io.Reader, arity int, header string, row func(line int, fields []string) error) error {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = arity
	cr.TrimLeadingSpace = true
	line := 0
	for first := true; ; first = false {
		fields, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			return fmt.Errorf("line %d: %w", pe.Line, err)
		} else if err != nil {
			return fmt.Errorf("line %d: %w", line+1, err)
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		if first && strings.EqualFold(fields[0], header) {
			continue
		}
		line, _ = cr.FieldPos(0)
		if err := row(line, fields); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
}

// Load opens path and reads it with csv or jsonl, picked by extension:
// .csv is CSV; .jsonl, .ndjson and .json are JSONL. what prefixes the
// open and unknown-extension errors; the readers' own errors pass
// through unchanged.
func Load[T any](what, path string, csv, jsonl func(io.Reader) (T, error)) (T, error) {
	var zero T
	read := jsonl
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".csv":
		read = csv
	case ".jsonl", ".ndjson", ".json":
	default:
		return zero, fmt.Errorf("%s %s: unknown extension %q (want .csv, .jsonl, .ndjson or .json)", what, path, ext)
	}
	f, err := os.Open(path)
	if err != nil {
		return zero, fmt.Errorf("%s: %w", what, err)
	}
	defer f.Close()
	return read(f)
}
