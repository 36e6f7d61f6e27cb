package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/lineio"
)

// JSON Lines is the trace interchange format: one Record object per
// line, blank lines and #-comments skipped. The writer is what lbdyn's
// -trace-out sink and lbserve's trace log produce; the reader is the
// validating side cmd/lbtrace and the fuzz harness drive — every line
// is parsed with unknown fields rejected, checked by Record.Validate,
// and every error carries its 1-based line number.

// Writer streams records as JSON Lines through a buffered writer.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewWriter returns a Writer on w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Write appends one record as a JSON line.
func (w *Writer) Write(rec *Record) error { return w.enc.Encode(rec) }

// Flush drains the buffer to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// WriteRecords writes all of recs to w as JSON Lines.
func WriteRecords(w io.Writer, recs []Record) error {
	tw := NewWriter(w)
	for i := range recs {
		if err := tw.Write(&recs[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// ReadRecords parses a JSON Lines trace stream. Blank lines and lines
// starting with '#' are skipped; every other line must be exactly one
// Record object with no unknown fields, and must pass Validate. Errors
// carry the 1-based line number.
func ReadRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	err := lineio.JSONL(r, lineio.MaxLine, func(_ int, rec *Record) error {
		if err := rec.Validate(); err != nil {
			return err
		}
		recs = append(recs, *rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return recs, nil
}
