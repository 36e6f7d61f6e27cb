package lineio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// rec is a trace-arrival-shaped record: the hand-written JSONL formats
// all look like this, with pointer fields so a missing key is visible.
type rec struct {
	Round  *int     `json:"round"`
	Weight *float64 `json:"weight"`
}

type jsonlRow struct {
	Line int
	Rec  rec
}

func readJSONL(in string, maxLine int) ([]jsonlRow, error) {
	var rows []jsonlRow
	err := JSONL(strings.NewReader(in), maxLine, func(line int, r *rec) error {
		if r.Round == nil {
			return errors.New("record must carry \"round\"")
		}
		rows = append(rows, jsonlRow{line, *r})
		return nil
	})
	return rows, err
}

func TestJSONL(t *testing.T) {
	rows, err := readJSONL("# header\n\n  {\"round\":1,\"weight\":2}\r\n{\"round\":3}\n   # indented comment\n", MaxLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Line != 3 || *rows[0].Rec.Round != 1 || *rows[0].Rec.Weight != 2 ||
		rows[1].Line != 4 || *rows[1].Rec.Round != 3 || rows[1].Rec.Weight != nil {
		t.Fatalf("rows = %+v", rows)
	}
	for _, tc := range []struct{ name, in, want string }{
		{"syntax", "{\"round\":1}\n{broken\n", "line 2: invalid character"},
		{"unknown field", "\n{\"round\":1,\"w\":2}", `line 2: json: unknown field "w"`},
		{"row error", "{\"round\":1}\n{\"weight\":2}", `line 2: record must carry "round"`},
		{"concatenated", `{"round":1}{"round":2}`, "line 1: trailing data after the record"},
		{"trailing brace", `{"round":1}}`, "line 1: trailing data after the record"},
		{"trailing bracket", `{"round":1}]`, "line 1: trailing data after the record"},
		{"trailing junk", `{"round":1} x`, "line 1: trailing data after the record"},
		{"truncated", `{"round":1`, "line 1: unexpected EOF"},
	} {
		if _, err := readJSONL(tc.in, MaxLine); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestLines: the iterator hands over each record line trimmed, with
// its number, and wraps the callback's error with it; it decodes
// nothing.
func TestLines(t *testing.T) {
	var got []string
	err := Lines(strings.NewReader("# c\n\n  not json \r\n\t#x\n{}\nstop\nnever\n"), MaxLine, func(line int, text []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", line, text))
		if string(text) == "stop" {
			return errors.New("stopped")
		}
		return nil
	})
	if want := []string{"3:not json", "5:{}", "6:stop"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("lines %q, want %q", got, want)
	}
	if err == nil || err.Error() != "line 6: stopped" {
		t.Fatalf("error %v, want line 6: stopped", err)
	}
}

// TestDecode: exactly one value, unknown fields rejected, and any byte
// after the value, whitespace included, is trailing data.
func TestDecode(t *testing.T) {
	var r rec
	if err := Decode([]byte(`{"round":4,"weight":1.5}`), &r); err != nil || *r.Round != 4 || *r.Weight != 1.5 {
		t.Fatalf("decode: %+v %v", r, err)
	}
	for in, want := range map[string]string{
		`{"round":1,"w":2}`: `json: unknown field "w"`,
		`{"round":1} `:      "trailing data after the record",
		`{"round":1}{}`:     "trailing data after the record",
		``:                  "EOF",
	} {
		var r rec
		if err := Decode([]byte(in), &r); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", in, err, want)
		}
	}
}

// padded returns a valid record line of exactly n bytes.
func padded(n int) string {
	const head, tail = `{"round":1,`, `"weight":2}`
	return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail
}

// TestJSONLLineBound: a hand-written line over the 1 MiB bound fails
// with its own line number; the unbounded reader takes it.
func TestJSONLLineBound(t *testing.T) {
	long := "# arrivals\n" + padded(30) + "\n" + padded(MaxLine) + "\n" + padded(30) + "\n"
	_, err := readJSONL(long, MaxLine)
	if err == nil || err.Error() != "line 3: exceeds the 1048576-byte line limit" {
		t.Fatalf("over-long line: %v", err)
	}
	if rows, err := readJSONL(long, 0); err != nil || len(rows) != 3 || rows[2].Line != 4 {
		t.Fatalf("unbounded read: %d rows, %v", len(rows), err)
	}
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{padded(MaxLine-1) + "\n", true},
		{padded(MaxLine - 1), true},
		{padded(MaxLine-2) + "\r\n", true},
		{padded(MaxLine-1) + "\r\n", false},
		{padded(MaxLine), false},
	} {
		if _, err := readJSONL(tc.in, MaxLine); (err == nil) != tc.ok {
			t.Errorf("line of %d bytes: error %v, want ok=%v", len(tc.in), err, tc.ok)
		}
	}
}

type csvRow struct {
	Line   int
	Fields []string
}

func readCSV(in string, arity int) ([]csvRow, error) {
	var rows []csvRow
	err := CSV(strings.NewReader(in), arity, "round", func(line int, f []string) error {
		if f[0] == "bad" {
			return errors.New("bad round")
		}
		rows = append(rows, csvRow{line, f})
		return nil
	})
	return rows, err
}

func TestCSV(t *testing.T) {
	rows, err := readCSV("ROUND , weight\r\n# comment\r\n\r\n 0 , 2.5\r\n\"1\",\" 3 \"\r\n", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []csvRow{{4, []string{"0", "2.5"}}, {5, []string{"1", "3"}}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %+v, want %+v", rows, want)
	}
	// Only the first row can be the header.
	if rows, err := readCSV("0,1\nround,2\n", -1); err != nil || len(rows) != 2 {
		t.Fatalf("late header row: %+v %v", rows, err)
	}
	if rows, err := readCSV("a\nb,c,d\n", -1); err != nil || len(rows) != 2 || len(rows[1].Fields) != 3 {
		t.Fatalf("free arity: %+v %v", rows, err)
	}
	for _, tc := range []struct {
		in    string
		arity int
		want  string
	}{
		{"0,1\n0,1,2\n", 2, "line 2: record on line 2: wrong number of fields"},
		{"0,1\n0,\"1\n", 2, "line 2: parse error on line 2, column 6: extraneous or missing \" in quoted-field"},
		{"0,\"1\n2\"x\n", 2, "line 2: record on line 1; parse error on line 2, column 2: extraneous or missing \" in quoted-field"},
		{"0,1\n1,x\"y\n", 2, "line 2: parse error on line 2, column 4: bare \" in non-quoted-field"},
		{"0,1\n# c\nbad,2\n", 2, "line 3: bad round"},
	} {
		if _, err := readCSV(tc.in, tc.arity); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want %q", tc.in, err, tc.want)
		}
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	which := func(name string) (string, error) {
		return Load("test: file", filepath.Join(dir, name),
			func(io.Reader) (string, error) { return "csv", nil },
			func(io.Reader) (string, error) { return "jsonl", nil })
	}
	for name, want := range map[string]string{"a.csv": "csv", "a.CSV": "csv", "a.jsonl": "jsonl", "a.ndjson": "jsonl", "a.json": "jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := which(name); err != nil || got != want {
			t.Errorf("%s: read as %q (%v), want %q", name, got, err, want)
		}
	}
	if _, err := which("a.txt"); err == nil || !strings.Contains(err.Error(), `test: file `+dir+`/a.txt: unknown extension ".txt" (want .csv, .jsonl, .ndjson or .json)`) {
		t.Errorf("unknown extension: %v", err)
	}
	if _, err := which("missing.csv"); !errors.Is(err, os.ErrNotExist) || !strings.HasPrefix(err.Error(), "test: file: open ") {
		t.Errorf("missing file: %v", err)
	}
}
