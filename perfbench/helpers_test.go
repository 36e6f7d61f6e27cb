package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1, unsorted on purpose
	}
	p90, err := percentile(xs, 0.9)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", p90, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it; want an error")
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 100 samples has 1 beyond it; want an error")
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if p99, err := percentile(big, 0.99); err != nil || p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", p99, err)
	}
	if _, err := percentile(big, 1); err == nil {
		t.Fatal("q = 1 accepted")
	}
}

func TestScheduleAndLateness(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 200)
	if s.period != 5*time.Millisecond {
		t.Fatalf("period at 200/s = %v, want 5ms", s.period)
	}
	if got := s.due(0); !got.Equal(start) {
		t.Fatalf("due(0) = %v, want the start", got)
	}
	if got := s.due(7); !got.Equal(start.Add(35 * time.Millisecond)) {
		t.Fatalf("due(7) = %v, want start+35ms", got)
	}
	due := s.due(3)
	if got := late(due, due.Add(1500*time.Microsecond)); got != 1500*time.Microsecond {
		t.Fatalf("late = %v, want 1.5ms", got)
	}
	if got := late(due, due.Add(-time.Microsecond)); got != 0 {
		t.Fatalf("a send before its due time reads %v late, want 0", got)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t   45056 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(45056) << 10; got != want {
		t.Fatalf("VmHWM = %d bytes, want %d", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted", bad)
		}
	}
}

func TestPeakRSSOfSelf(t *testing.T) {
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	rss, err := selfRSS()
	if err != nil || rss <= 0 {
		t.Fatalf("peak RSS of self = %v MiB, %v", rss, err)
	}
}

func TestCPUTimerBlockingCheck(t *testing.T) {
	ok := cpuTimer{cpu: 10 * time.Millisecond, blocks: 20}
	if err := ok.check(); err != nil {
		t.Fatalf("2 blocks per ms of CPU rejected: %v", err)
	}
	waited := cpuTimer{cpu: 10 * time.Millisecond, blocks: 21}
	if err := waited.check(); !errors.Is(err, errCheck) {
		t.Fatalf("2.1 blocks per ms of CPU: got %v, want an output check failure", err)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "b", Start: ms(20), End: ms(50), Parent: 0},  // overlaps a: 10..50 covered once
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // reaches past op: clipped to 90..100
		{Name: "a.x", Start: ms(12), End: ms(18), Parent: 1},
		{Name: "other", Start: ms(0), End: ms(5), Parent: -1},
	}
	want := []time.Duration{ms(50), ms(14), ms(30), ms(30), ms(6), ms(5)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.selfByName("x") != nil {
		t.Fatal("a nil tracer recorded something")
	}
	tr = newTracer()
	p := tr.begin("op", -1, 1)
	c := tr.begin("child", p, 1)
	tr.end(c)
	tr.end(p)
	if n := len(tr.selfByName("child")); n != 1 {
		t.Fatalf("%d child spans, want 1", n)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, code map[string]string) {
		if len(listed) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(code))
		}
		for _, m := range listed {
			if u, ok := code[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, benchmark has unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s in BENCHMARK.json is not implemented", w.Name)
		}
	}
}
