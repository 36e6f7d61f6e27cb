package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestOpCauseNames(t *testing.T) {
	for o := Op(1); o < numOps; o++ {
		back, ok := OpFromString(o.String())
		if !ok || back != o {
			t.Errorf("op %d: round-trip via %q gave (%d, %v)", o, o.String(), back, ok)
		}
	}
	for c := Cause(0); c < numCauses; c++ {
		back, ok := CauseFromString(c.String())
		if !ok || back != c {
			t.Errorf("cause %d: round-trip via %q gave (%d, %v)", c, c.String(), back, ok)
		}
	}
	if _, ok := OpFromString("bogus"); ok {
		t.Error("OpFromString accepted bogus")
	}
	if _, ok := CauseFromString("bogus"); ok {
		t.Error("CauseFromString accepted bogus")
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	recs := []Record{
		{Round: 3, Task: 42, Op: OpArrive, From: -1, To: 7, Weight: 2.5},
		{Round: 9, Task: 42, Op: OpHop, Cause: CauseProtocol, From: 7, To: 11, Hops: 1},
		{Round: 12, Task: 42, Op: OpLoss, Cause: CauseRetry, From: 11, To: 3},
		{Round: 14, Task: 42, Op: OpRetry, Cause: CauseRetry, From: 11, To: 3, Attempt: 1},
		{Round: 16, Task: 42, Op: OpHop, Cause: CauseRetry, From: 11, To: 3, Hops: 2, Attempt: 2, Latency: 4},
		{Round: 30, Task: 42, Op: OpDepart, From: 3, To: -1, Weight: 2.5, Hops: 2, Sojourn: 27},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round-trip mismatch\ngot  %+v\nwant %+v", got, recs)
	}
	// Ops and causes travel as their wire names, not numbers.
	if !strings.Contains(buf.String(), `"op":"hop"`) || !strings.Contains(buf.String(), `"cause":"protocol"`) {
		t.Fatalf("wire format lost the string enums:\n%s", buf.String())
	}
}

func TestReaderRejectsWithLineNumbers(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"unknown op", `{"round":1,"task":0,"op":"warp","from":0,"to":1}`, "line 1"},
		{"unknown cause", `{"round":1,"task":0,"op":"hop","cause":"gremlins","from":0,"to":1}`, "line 1"},
		{"unknown field", `{"round":1,"task":0,"op":"hop","from":0,"to":1,"extra":1}`, "unknown field"},
		{"negative task", `{"round":1,"task":-5,"op":"hop","from":0,"to":1}`, "negative task"},
		{"numeric op", `{"round":1,"task":0,"op":2,"from":0,"to":1}`, "must be a string"},
		{"trailing data", `{"round":1,"task":0,"op":"hop","from":0,"to":1} {"x":1}`, "trailing data"},
		{"trailing brace", `{"round":1,"task":0,"op":"hop","from":0,"to":1}}`, "line 1: trailing data"},
		{"trailing bracket", `{"round":1,"task":0,"op":"hop","from":0,"to":1}]`, "line 1: trailing data"},
		{"second line", "{\"round\":1,\"task\":0,\"op\":\"hop\",\"from\":0,\"to\":1}\nnot json", "line 2"},
	}
	for _, tc := range cases {
		_, err := ReadRecords(strings.NewReader(tc.input))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	// Comments and blank lines are not errors.
	recs, err := ReadRecords(strings.NewReader("# header\n\n{\"round\":1,\"task\":0,\"op\":\"arrive\",\"from\":-1,\"to\":0}\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("comment skip: recs=%d err=%v", len(recs), err)
	}
}

func TestSampledIsStatelessAndProportional(t *testing.T) {
	const seed, p, n = 0xabc, 0.25, 200000
	hits := 0
	for id := 0; id < n; id++ {
		a, b := Sampled(seed, id, p), Sampled(seed, id, p)
		if a != b {
			t.Fatalf("task %d: Sampled not deterministic", id)
		}
		if a {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-p) > 0.01 {
		t.Fatalf("sampling rate %.4f, want ~%.2f", frac, p)
	}
	if Sampled(seed, 1, 0) {
		t.Fatal("p=0 sampled something")
	}
	if !Sampled(seed, 1, 1) {
		t.Fatal("p=1 missed a task")
	}
	// Different seeds pick different sets.
	diff := 0
	for id := 0; id < 1000; id++ {
		if Sampled(1, id, 0.5) != Sampled(2, id, 0.5) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 sample identical sets")
	}
}

func TestHistObserveQuantile(t *testing.T) {
	var h Hist
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 || h.Sum != 5050 {
		t.Fatalf("count %d sum %d, want 100, 5050", h.Count(), h.Sum)
	}
	if m := h.Mean(); m != 50.5 {
		t.Fatalf("mean %v, want 50.5", m)
	}
	// The ladder is accurate to a factor of two: p50 of 1..100 is 50,
	// the estimate must land inside the (32, 64] bucket.
	if q := h.Quantile(0.5); q <= 32 || q > 64 {
		t.Fatalf("p50 = %v, want within (32, 64]", q)
	}
	if q := h.Quantile(1); q <= 64 || q > 128 {
		t.Fatalf("p100 = %v, want within (64, 128]", q)
	}
	// Overflow clamps to the largest finite bound.
	var o Hist
	o.Observe(1 << 30)
	if q := o.Quantile(0.99); q != float64(Bounds[len(Bounds)-1]) {
		t.Fatalf("overflow quantile %v, want %d", q, Bounds[len(Bounds)-1])
	}
	// Negative observations clamp into the first bucket.
	var neg Hist
	neg.Observe(-3)
	if neg.Counts[0] != 1 {
		t.Fatalf("negative observation landed in %v", neg.Counts)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, both Hist
	for v := int64(0); v < 50; v++ {
		a.Observe(v)
		both.Observe(v)
	}
	for v := int64(50); v < 90; v++ {
		b.Observe(v * 3)
		both.Observe(v * 3)
	}
	a.Merge(&b)
	if !reflect.DeepEqual(a, both) {
		t.Fatalf("merge mismatch\ngot  %+v\nwant %+v", a, both)
	}
}

func TestSnapshotJSON(t *testing.T) {
	var s Snapshot
	s.Sojourn.Observe(10)
	s.Hops.Observe(2)
	s.RetryLat.Observe(7)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("snapshot round-trip mismatch\ngot  %+v\nwant %+v", back, s)
	}
}
