package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lineio"
)

// FuzzRoundLog hammers the round-log parser with arbitrary bytes: it
// must never panic, and any log it accepts must round-trip — re-encode
// the parsed records and the parser must accept THAT byte-for-byte on a
// second pass (encode∘decode is the identity on canonical logs).
func FuzzRoundLog(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte(`{"t":0}` + "\n"))
	f.Add([]byte(`{"t":0,"w":[1,2.5,3.0009765625]}` + "\n" + `{"t":1,"down":[3],"up":[7],"dispatch":"power-of-2"}` + "\n"))
	f.Add([]byte(`{"t":0,"dispatch":"hotspot:4"}` + "\n\n" + `{"t":1,"dispatch":"speed-weighted"}` + "\n"))
	f.Add([]byte(`{"t":5}` + "\n"))
	f.Add([]byte(`{"t":0,"w":[0.25]}` + "\n"))
	f.Add([]byte(`{"t":0,"bogus":1}` + "\n"))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRoundLog(bytes.NewReader(data))
		if err != nil {
			return // rejected is fine; panicking is not
		}
		var canon bytes.Buffer
		for i := range recs {
			if err := AppendRecord(&canon, &recs[i]); err != nil {
				t.Fatalf("re-encoding accepted records: %v", err)
			}
		}
		recs2, err := ReadRoundLog(bytes.NewReader(canon.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v\nlog:\n%s", err, canon.Bytes())
		}
		var canon2 bytes.Buffer
		for i := range recs2 {
			if err := AppendRecord(&canon2, &recs2[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
			t.Fatalf("round log is not canonical after one encode pass:\nfirst:\n%s\nsecond:\n%s",
				canon.Bytes(), canon2.Bytes())
		}
	})
}

// FuzzRoundLogCodec holds the round log's own codec to encoding/json,
// which stays the reference:
//
//   - decode: for any line parseRecord accepts, the record must equal
//     what the strict decode (lineio.Decode) gives;
//   - encode: for a record built from the inputs (raw float bits, any
//     ints, any dispatch string), AppendRecord must write exactly
//     json.Marshal's bytes plus a newline, or fail with json.Marshal's
//     error and write nothing; and parseRecord must read that line back
//     to the record, unless the dispatch string needs escaping.
//
// shape picks the record's fields: bits 0–1 the weight count (0–3),
// bit 2 down, bit 3 up. Run with
//
//	go test -run '^$' -fuzz '^FuzzRoundLogCodec$' -fuzztime 30s ./internal/serve
func FuzzRoundLogCodec(f *testing.F) {
	f.Add([]byte(`{"t":0,"w":[1,2.5],"down":[3],"up":[7],"dispatch":"power-of-2"}`),
		int64(0), uint8(15), math.Float64bits(1), math.Float64bits(2.5), math.Float64bits(19.99),
		int64(3), int64(7), "power-of-2")
	f.Fuzz(func(t *testing.T, line []byte, round int64, shape uint8, w0, w1, w2 uint64, down, up int64, dispatch string) {
		var ws []float64
		if fast, ok := parseRecord(line, &ws); ok {
			var strict RoundRecord
			if err := lineio.Decode(line, &strict); err != nil {
				t.Fatalf("parseRecord accepted %q, the strict decode rejects it: %v", line, err)
			}
			if !reflect.DeepEqual(fast, strict) {
				t.Fatalf("line %q: parseRecord gives %#v, the strict decode %#v", line, fast, strict)
			}
		}

		rec := RoundRecord{Round: int(round), Dispatch: dispatch}
		for _, bits := range []uint64{w0, w1, w2}[:shape&3] {
			rec.Weights = append(rec.Weights, math.Float64frombits(bits))
		}
		if shape&4 != 0 {
			rec.Down = []int{int(down)}
		}
		if shape&8 != 0 {
			rec.Up = []int{int(up)}
		}
		var got bytes.Buffer
		err := AppendRecord(&got, &rec)
		want, wantErr := json.Marshal(&rec)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() || got.Len() != 0 {
				t.Fatalf("%#v: AppendRecord wrote %q with error %v; json.Marshal fails with %v", rec, got.Bytes(), err, wantErr)
			}
			return
		}
		if err != nil || got.String() != string(want)+"\n" {
			t.Fatalf("%#v: AppendRecord wrote %q (%v), json.Marshal %q", rec, got.Bytes(), err, want)
		}
		back, ok := parseRecord(want, &ws)
		needsEscape := strings.ContainsFunc(dispatch, func(r rune) bool {
			return r < ' ' || r > '~' || strings.ContainsRune(`"\<>&`, r)
		})
		switch {
		case !ok && !needsEscape:
			t.Fatalf("parseRecord rejects AppendRecord's line %q", want)
		case ok && !reflect.DeepEqual(back, rec):
			t.Fatalf("line %q reads back as %#v, want %#v", want, back, rec)
		}
	})
}
