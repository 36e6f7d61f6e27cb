package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindWindow, Seq: 1, Round: 100, Window: WindowStats{
			Start: 0, End: 100, OverloadFrac: 0.25, MigrationRate: 1.5,
			MeanLoad: 3.25, MaxLoad: 9, P99Load: 8, P99LoadPerSpeed: 4,
			InFlight: 700, InFlightWeight: 1234.5, UpResources: 64,
		}},
		{Kind: KindShardWindow, Seq: 2, Round: 100, ShardWindow: ShardWindowStats{
			Shard: 1, Lo: 32, Hi: 64, Start: 0, End: 100,
			OverloadFrac: 0.5, ArrivalRate: 12, DepartureRate: 11.5,
			InboundRate: 3, MeanLoad: 4, MaxLoad: 9, P99Load: 8,
			P99LoadPerSpeed: 8, InFlight: 350, InFlightWeight: 617.25, UpResources: 32,
		}},
		{Kind: KindDomainWindow, Seq: 3, Round: 100, DomainWindow: DomainWindowStats{
			Level: "rack", Domain: 2, Name: "rack2", Start: 0, End: 100,
			OverloadFrac: 0.125, MeanLoad: 2, MaxLoad: 5, InFlightWeight: 16,
			UpResources: 8, DownResources: 0,
		}},
		{Kind: KindLanes, Seq: 4, Round: 64, Lane: LaneStats{Shard: 3, Inbound: 41}},
		{Kind: KindShardCost, Seq: 5, Round: 64, ShardCost: ShardCost{
			Shard: 2, ShardStat: ShardStat{Lo: 64, Hi: 96, Nanos: 987654}}},
		{Kind: KindPhase, Seq: 6, Round: 64, Phase: PhaseStats{Shard: 0,
			Nanos: [NumPhases]int64{PhaseService: 900, PhasePropose: 300,
				PhaseDeliver: 200, PhaseEvac: 50}}},
		{Kind: KindPhase, Seq: 7, Round: 64, Phase: PhaseStats{Shard: -1,
			Nanos: [NumPhases]int64{PhaseArrivals: 400, PhaseTune: 100}}},
		{Kind: KindRecoveryStart, Seq: 8, Round: 40, Recovery: RecoveryEvent{
			Round: 40, Downs: 8, EvacTasks: 120, EvacWeight: 240.5,
			BaselineOverload: 0.1, DrainRounds: -1}},
		{Kind: KindRecoveryEnd, Seq: 9, Round: 55, Recovery: RecoveryEvent{
			Round: 40, Downs: 8, EvacTasks: 120, EvacWeight: 240.5,
			BaselineOverload: 0.1, PeakOverload: 0.6, DrainRounds: 15}},
	}
}

// TestEventsJSONLRoundtrip: write → read reproduces every kind
// exactly.
func TestEventsJSONLRoundtrip(t *testing.T) {
	want := sampleEvents()
	var buf bytes.Buffer
	if err := WriteEvents(&buf, want); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	if n := strings.Count(buf.String(), "\n"); n != len(want) {
		t.Fatalf("wrote %d lines for %d events", n, len(want))
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestEventsJSONLWireShape pins the line format offline tooling parses.
func TestEventsJSONLWireShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEvents(&buf, sampleEvents()[:1]); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	line := strings.TrimSpace(buf.String())
	for _, want := range []string{
		`"kind":"window"`, `"seq":1`, `"round":100`,
		`"overload_frac":0.25`, `"p99_load_per_speed":4`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("wire line missing %s:\n%s", want, line)
		}
	}
	if strings.Contains(line, "shard_window") {
		t.Errorf("window line leaks another kind's payload:\n%s", line)
	}
}

// TestReadEventsComments: blank lines and comments are skipped.
func TestReadEventsComments(t *testing.T) {
	in := "# header comment\n\n" +
		`{"kind":"lanes","seq":1,"round":64,"lane":{"shard":0,"inbound":5}}` + "\n"
	evs, err := ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(evs) != 1 || evs[0].Lane.Inbound != 5 {
		t.Fatalf("got %+v, want one lane event", evs)
	}
}

// TestReadEventsErrors: malformed input fails with a line number, not
// a panic.
func TestReadEventsErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"bad json", "{not json}", "line 1"},
		{"unknown kind", `{"kind":"nope","round":1,"lane":{"shard":0,"inbound":1}}`, `unknown kind "nope"`},
		{"unknown field", `{"kind":"lanes","round":1,"lane":{"shard":0,"inbound":1},"extra":1}`, "line 1"},
		{"no payload", `{"kind":"lanes","round":1}`, "exactly one payload"},
		{"two payloads", `{"kind":"lanes","round":1,"lane":{"shard":0,"inbound":1},"window":{}}`, "carries"},
		{"mismatched payload", `{"kind":"window","round":1,"lane":{"shard":0,"inbound":1}}`, "carries"},
		{"trailing data", `{"kind":"lanes","round":1,"lane":{"shard":0,"inbound":1}} {"x":1}`, "trailing"},
		{"trailing brace", `{"kind":"lanes","round":1,"lane":{"shard":0,"inbound":1}}}`, "line 1: trailing"},
		{"trailing bracket", `{"kind":"lanes","round":1,"lane":{"shard":0,"inbound":1}}]`, "line 1: trailing"},
		{"second line", "{\"kind\":\"lanes\",\"round\":1,\"lane\":{\"shard\":0,\"inbound\":1}}\n{bad}", "line 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEvents(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("ReadEvents accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSinkPumpsToWriter: end-to-end broker → sink goroutine → JSONL →
// ReadEvents.
func TestSinkPumpsToWriter(t *testing.T) {
	b := NewBroker()
	// Close joins the pump goroutine, so reading buf afterwards is
	// race-free without extra locking.
	var buf bytes.Buffer
	sink := NewSink(&buf, b, SubOptions{Capacity: 64})
	if sink == nil {
		t.Fatal("NewSink returned nil on open broker")
	}
	want := sampleEvents()
	for i := range want {
		ev := want[i]
		ev.Seq = 0 // broker assigns
		b.Publish(&ev)
	}
	b.Close()
	if err := sink.Close(); err != nil {
		t.Fatalf("sink.Close: %v", err)
	}
	got, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents of sink output: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("sink wrote %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != uint64(i+1) {
			t.Errorf("event %d: Seq = %d, want %d", i, got[i].Seq, i+1)
		}
		want[i].Seq = got[i].Seq
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestSinkCloseBeforeBroker: closing the sink mid-run detaches cleanly
// and flushes what was buffered.
func TestSinkCloseBeforeBroker(t *testing.T) {
	b := NewBroker()
	var buf bytes.Buffer
	sink := NewSink(&buf, b, SubOptions{Capacity: 64, Kinds: Mask(KindLanes)})
	ev := Event{Kind: KindLanes, Round: 1, Lane: LaneStats{Shard: 0, Inbound: 9}}
	b.Publish(&ev)
	win := Event{Kind: KindWindow, Round: 1}
	b.Publish(&win) // filtered out by the mask
	if err := sink.Close(); err != nil {
		t.Fatalf("sink.Close: %v", err)
	}
	got, err := ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEvents: %v", err)
	}
	if len(got) != 1 || got[0].Kind != KindLanes {
		t.Fatalf("got %+v, want exactly the lane event", got)
	}
	b.Close()
}

// TestTraceSinkWritesRecords: a trace sink writes exactly the bytes
// trace.WriteRecords writes for the KindTrace events published, in
// order, and nothing for any other kind.
func TestTraceSinkWritesRecords(t *testing.T) {
	recs := []trace.Record{
		{Round: 1, Task: 7, Op: trace.OpArrive, From: -1, To: 3, Weight: 2.5},
		{Round: 2, Task: 7, Op: trace.OpHop, Cause: trace.CauseProtocol, From: 3, To: 1, Hops: 1},
		{Round: 4, Task: 9, Op: trace.OpRetry, Cause: trace.CauseRetry, From: 0, To: 2, Attempt: 2, Latency: 3},
		{Round: 6, Task: 7, Op: trace.OpDepart, From: 1, To: -1, Weight: 2.5, Hops: 1, Sojourn: 5},
	}
	var want bytes.Buffer
	if err := trace.WriteRecords(&want, recs); err != nil {
		t.Fatal(err)
	}
	b := NewBroker()
	var buf bytes.Buffer
	sink := NewTraceSink(&buf, b, 64)
	if sink == nil {
		t.Fatal("NewTraceSink returned nil on open broker")
	}
	others := sampleEvents()
	for i := range recs {
		ev := others[i]
		ev.Seq = 0
		b.Publish(&ev)
		tr := Event{Kind: KindTrace, Round: recs[i].Round, Trace: recs[i]}
		b.Publish(&tr)
	}
	b.Close()
	if err := sink.Close(); err != nil {
		t.Fatalf("sink.Close: %v", err)
	}
	if got := buf.String(); got != want.String() {
		t.Fatalf("trace sink wrote\n%s\nwant\n%s", got, want.String())
	}

	b = NewBroker()
	buf.Reset()
	sink = NewTraceSink(&buf, b, 64)
	for i := range others {
		ev := others[i]
		ev.Seq = 0
		b.Publish(&ev)
	}
	b.Close()
	if err := sink.Close(); err != nil {
		t.Fatalf("sink.Close: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("trace sink wrote %q for events of other kinds, want nothing", buf.String())
	}
}
