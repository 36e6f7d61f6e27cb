package lineio

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The shared readers are fuzzed against the strictest per-format loops
// they replaced, copied here as references: the arrival-trace JSONL
// loop with its one-value-per-line check, and the arrival-trace CSV
// loop with its header skip. On every input both sides must accept the
// same records at the same line numbers, or both must reject it, and a
// row error must name the reference's line. Run with
//
//	go test -run '^$' -fuzz '^FuzzJSONL$' -fuzztime 30s ./internal/lineio
//
// (one target per invocation; CI smoke-runs both).

// refJSONL is the arrival-trace JSONL loop as it stood before this
// package, collecting rows instead of bucketing weights.
func refJSONL(r io.Reader) ([]jsonlRow, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var recs []jsonlRow
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var v rec
		dec := json.NewDecoder(strings.NewReader(text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&v); err != nil {
			return nil, fmt.Errorf("dynamic: trace jsonl line %d: %w", line, err)
		}
		if err := oneValuePerLine(dec); err != nil {
			return nil, fmt.Errorf("dynamic: trace jsonl line %d: %w", line, err)
		}
		if v.Round == nil {
			return nil, fmt.Errorf("dynamic: trace jsonl line %d: record must carry \"round\"", line)
		}
		recs = append(recs, jsonlRow{line, v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dynamic: trace jsonl: %w", err)
	}
	return recs, nil
}

// oneValuePerLine is the trailing-data check the JSONL loops shared.
func oneValuePerLine(dec *json.Decoder) error {
	tok, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err != nil:
		return fmt.Errorf("trailing data after the record: %w", err)
	default:
		return fmt.Errorf("trailing data %v after the record", tok)
	}
}

// refCSV is the arrival-trace CSV loop as it stood before this
// package, with the arity as a parameter and the fields collected.
func refCSV(r io.Reader, arity int) ([]csvRow, error) {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = arity
	cr.TrimLeadingSpace = true
	var recs []csvRow
	first := true
	for {
		fields, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dynamic: trace csv: %w", err)
		}
		if first {
			first = false
			if strings.EqualFold(strings.TrimSpace(fields[0]), "round") {
				continue // header row
			}
		}
		line, _ := cr.FieldPos(0)
		if strings.TrimSpace(fields[0]) == "bad" {
			return nil, fmt.Errorf("dynamic: trace csv line %d: bad round %q", line, fields[0])
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		recs = append(recs, csvRow{line, fields})
	}
	return recs, nil
}

var refLine = regexp.MustCompile(`line (\d+): `)

// checkSameOutcome compares a reader's result with its reference's.
func checkSameOutcome(t *testing.T, got, want any, err, wantErr error) {
	t.Helper()
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("error %v, reference error %v", err, wantErr)
	case err == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rows %+v, reference rows %+v", got, want)
		}
	case !strings.HasPrefix(err.Error(), "line "):
		t.Fatalf("error %q names no line", err)
	default:
		if m := refLine.FindStringSubmatch(wantErr.Error()); m != nil && !strings.HasPrefix(err.Error(), m[0]) {
			t.Fatalf("error %q, reference error %q", err, wantErr)
		}
	}
}

// padInput, for pad > 0, prefixes data with enough blanks to put its
// first line within a few hundred bytes of the 1 MiB bound. Blanks are
// trimmed from a line, so only the line's length changes, and the
// bound stays in reach of small fuzz inputs.
func padInput(data []byte, pad int) []byte {
	if pad <= 0 {
		return data
	}
	return append(bytes.Repeat([]byte{' '}, MaxLine-256+pad%512), data...)
}

func FuzzJSONL(f *testing.F) {
	f.Add([]byte("{\"round\":1,\"weight\":2}\r\n\r\n{\"round\":2}\r\n"), 0)
	f.Add([]byte("# comment\n\n  \t\n   # indented\n{\"round\":0}"), 0)
	f.Add([]byte(`{"round":1}{"round":2}`), 0)
	f.Add([]byte(`{"round":1}}`), 0)
	f.Add([]byte(`{"round":1}]`), 0)
	f.Add([]byte(`{"round":1} x`), 0)
	f.Add([]byte(`{"round":1,"w":2}`), 0)
	f.Add([]byte(`{"weight":2}`), 0)
	f.Add([]byte("null\n[]\n"), 0)
	f.Add([]byte("{\"round\":1}\r\n\xef\xbb\xbf{\"round\":2}\n"), 0)
	// {"round":0} is 11 bytes: pad 244 makes its line MaxLine-1 bytes,
	// the longest accepted; 245 is one byte over; a CR counts too.
	for _, pad := range []int{244, 245} {
		f.Add([]byte("{\"round\":0}\n{\"round\":1}\n"), pad)
		f.Add([]byte("{\"round\":0}"), pad)
		f.Add([]byte("{\"round\":0}\r\n"), pad-1)
	}
	f.Fuzz(func(t *testing.T, data []byte, pad int) {
		data = padInput(data, pad)
		want, wantErr := refJSONL(bytes.NewReader(data))
		var got []jsonlRow
		err := JSONL(bytes.NewReader(data), MaxLine, func(line int, r *rec) error {
			if r.Round == nil {
				return fmt.Errorf("record must carry \"round\"")
			}
			got = append(got, jsonlRow{line, *r})
			return nil
		})
		checkSameOutcome(t, got, want, err, wantErr)
	})
}

func FuzzCSV(f *testing.F) {
	f.Add([]byte("round,weight\r\n0,1\r\n\r\n1,2.5\r\n"), 2, 0)
	f.Add([]byte("Round , Weight\n# comment\n\n 0 , 1 \n"), 2, 0)
	f.Add([]byte("0,1\nROUND,2\n"), 2, 0)
	f.Add([]byte("0,1,2\n"), 2, 0)
	f.Add([]byte("loss,0.1\ndelay,0.05,4\npartition,0,9,0-3\n"), -1, 0)
	f.Add([]byte("0,1\n1,2\"x\n"), 2, 0)
	f.Add([]byte("0,\"1\n2\",3\n"), 3, 0)
	f.Add([]byte("0,1\nbad,2\n"), 2, 0)
	f.Add([]byte("\"round\",1\n#,\n,\n"), 2, 0)
	// CSV rows have no line bound: lines past 1 MiB load.
	f.Add([]byte("0,1\r\n1,2\n"), 2, 250)
	f.Add([]byte("round,weight\n0,1\n"), 2, 511)
	f.Fuzz(func(t *testing.T, data []byte, arity, pad int) {
		if arity < 1 || arity > 4 {
			arity = -1 // any
		}
		data = padInput(data, pad)
		want, wantErr := refCSV(bytes.NewReader(data), arity)
		var got []csvRow
		err := CSV(bytes.NewReader(data), arity, "round", func(line int, f []string) error {
			if f[0] == "bad" {
				return fmt.Errorf("bad round %q", f[0])
			}
			got = append(got, csvRow{line, f})
			return nil
		})
		checkSameOutcome(t, got, want, err, wantErr)
	})
}
