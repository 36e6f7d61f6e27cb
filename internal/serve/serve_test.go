package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// testRuntime builds a small steady-scenario runtime for unit tests.
func testRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	eng, err := dynamic.NewEngine(twinCfg("steady", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	rt := New(eng, "uniform", opts)
	t.Cleanup(rt.Close)
	return rt
}

func TestParseDispatch(t *testing.T) {
	valid := []struct{ in, engineName string }{
		{"uniform", "uniform"},
		{"hotspot:7", "hotspot(r=7)"},
		{"power-of-2", "power-of-2"},
		{"speed-weighted", "speed-weighted"},
	}
	for _, tc := range valid {
		d, err := ParseDispatch(tc.in)
		if err != nil {
			t.Errorf("ParseDispatch(%q): %v", tc.in, err)
			continue
		}
		if got := d.Name(); got != tc.engineName {
			t.Errorf("ParseDispatch(%q).Name() = %q, want %q", tc.in, got, tc.engineName)
		}
	}
	invalid := []struct{ in, wantErr string }{
		{"hotspot:x", `bad hotspot resource in dispatch "hotspot:x"`},
		{"hotspot:-1", `bad hotspot resource in dispatch "hotspot:-1"`},
		{"power-of-0", `bad choice count in dispatch "power-of-0"`},
		{"power-of-two", `bad choice count in dispatch "power-of-two"`},
		{"round-robin", `unknown dispatch policy "round-robin" (want uniform, hotspot:<r>, power-of-<d> or speed-weighted)`},
		{"", `unknown dispatch policy ""`},
	}
	for _, tc := range invalid {
		_, err := ParseDispatch(tc.in)
		if err == nil {
			t.Errorf("ParseDispatch(%q): expected an error", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseDispatch(%q) error = %q, want it to contain %q", tc.in, err, tc.wantErr)
		}
	}
}

func TestReadRoundLogErrors(t *testing.T) {
	cases := []struct{ name, input, wantErr string }{
		{"malformed JSON", "{not json\n", "round log line 1:"},
		{"unknown field", `{"t":0,"bogus":1}` + "\n", `unknown field "bogus"`},
		{"non-consecutive", `{"t":0}` + "\n" + `{"t":2}` + "\n", "line 2: round 2, want consecutive round 1"},
		{"starts past zero", `{"t":5}` + "\n", "line 1: round 5, want consecutive round 0"},
		{"invalid weight", `{"t":0,"w":[1.5,0.25]}` + "\n", "line 1: weight 1 is 0.25, violates wmin >= 1"},
		{"NaN weight", `{"t":0,"w":[null]}` + "\n", "line 1:"},
		{"negative drain", `{"t":0,"down":[-3]}` + "\n", "line 1: negative drain target -3"},
		{"negative add", `{"t":0,"up":[-1]}` + "\n", "line 1: negative add target -1"},
		{"bad dispatch", `{"t":0,"dispatch":"nope"}` + "\n", `line 1: serve: unknown dispatch policy "nope"`},
		{"concatenated records", `{"t":0}{"t":1}` + "\n", "line 1: trailing data"},
		{"trailing junk", `{"t":0} x` + "\n", "line 1: trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadRoundLog(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("expected an error for %q", tc.input)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want it to contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadRoundLogValid(t *testing.T) {
	input := "\n" + `{"t":0,"w":[1,2.5]}` + "\n\n" + `{"t":1,"down":[3],"dispatch":"power-of-2"}` + "\n" + `{"t":2}` + "\n"
	recs, err := ReadRoundLog(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []RoundRecord{
		{Round: 0, Weights: []float64{1, 2.5}},
		{Round: 1, Down: []int{3}, Dispatch: "power-of-2"},
		{Round: 2},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("parsed %+v, want %+v", recs, want)
	}
}

// TestRoundLogFullBacklogRecord: StepRound logs a round's whole
// admitted backlog as one record, and the backlog may reach the default
// MaxPending of 1<<20 weights (~20 MB of JSON), so the reader must take
// back any line the runtime writes or lbserve cannot resume from it.
func TestRoundLogFullBacklogRecord(t *testing.T) {
	r := rng.NewSeeded(7)
	rec := RoundRecord{Weights: make([]float64, 1<<20)}
	for i := range rec.Weights {
		rec.Weights[i] = 1 + 1000*r.Float64() // 17 significant digits
	}
	var buf bytes.Buffer
	if err := AppendRecord(&buf, &rec); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRoundLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], rec) {
		t.Fatal("full-backlog record did not round-trip")
	}
}

// TestStepRoundLogBuffer: StepRound writes each record as AppendRecord
// writes it, one line per round, formatted into a buffer the runtime
// keeps, so once that buffer has grown to a round's size formatting the
// line allocates nothing. The records expected are the batches and ops
// the test staged, and the log must read back to them.
func TestStepRoundLogBuffer(t *testing.T) {
	var log bytes.Buffer
	rt := testRuntime(t, Options{LogWriter: &log})
	r := rng.NewSeeded(11)
	batch := make([]float64, 300)
	var want []RoundRecord
	for round := range 3 {
		for i := range batch {
			batch[i] = min(r.Pareto(1, 2), 20)
		}
		if _, err := rt.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		rec := RoundRecord{Round: round, Weights: slices.Clone(batch)}
		if round == 1 {
			if err := rt.Reconfigure([]int{3}, nil, "power-of-2"); err != nil {
				t.Fatal(err)
			}
			rec.Down, rec.Dispatch = []int{3}, "power-of-2"
		}
		want = append(want, rec)
		if err := rt.StepRound(); err != nil {
			t.Fatal(err)
		}
	}
	var wantLog bytes.Buffer
	for i := range want {
		if err := AppendRecord(&wantLog, &want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(log.Bytes(), wantLog.Bytes()) {
		t.Fatalf("StepRound logged:\n%s\nAppendRecord writes:\n%s", log.Bytes(), wantLog.Bytes())
	}
	recs, err := ReadRoundLog(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("the log reads back as %+v, want %+v", recs, want)
	}
	if len(rt.logBuf) == 0 || !bytes.HasSuffix(log.Bytes(), rt.logBuf) {
		t.Fatalf("the runtime's buffer holds %q, not the last line logged", rt.logBuf)
	}

	if n := testing.AllocsPerRun(100, func() {
		rt.logBuf, _ = appendRecord(rt.logBuf[:0], &want[0])
	}); n != 0 {
		t.Fatalf("appendRecord into the runtime's warm buffer: %v allocs, want 0", n)
	}
}

// TestIngestWarmAllocs: StepRound hands the batch it stepped back as
// the backlog buffer of the round after next, so once each of the two
// buffers has held a round's batch, Ingest allocates nothing.
func TestIngestWarmAllocs(t *testing.T) {
	rt := testRuntime(t, Options{LogWriter: io.Discard})
	batch := []float64{1, 2.5, 3, 19.99}
	for round := range 8 {
		// AllocsPerRun calls the function once before it counts, so
		// every round admits two batches.
		n := testing.AllocsPerRun(1, func() {
			if _, err := rt.Ingest(batch); err != nil {
				t.Fatal(err)
			}
		})
		if round >= 2 && n != 0 {
			t.Fatalf("round %d: Ingest into a warm backlog buffer: %v allocs, want 0", round, n)
		}
		if err := rt.StepRound(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestDuringStepRound: an Ingest that runs while StepRound steps
// a batch fills the other backlog buffer, never the batch being
// stepped (the race job runs this package). Rounds step for as long as
// the ingester runs. Every weight is ingested once, so the log must
// hold them all, each once and in order, and the log's replay must end
// in the live Result.
func TestIngestDuringStepRound(t *testing.T) {
	const batches = 400
	cfg := func() dynamic.Config {
		cfg := twinCfg("steady", 2, 2)
		cfg.Rounds = 1 << 20 // the ingester decides how many rounds step
		return cfg
	}
	eng, err := dynamic.NewEngine(cfg())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	rt := New(eng, "", Options{LogWriter: &log})
	defer rt.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := range batches {
			if _, err := rt.Ingest([]float64{float64(1 + 2*b), float64(2 + 2*b)}); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	for stepping := true; stepping; {
		select {
		case <-done:
			stepping = false // one more round steps the rest
		default:
		}
		if err := rt.StepRound(); err != nil {
			<-done
			t.Fatal(err)
		}
	}
	live, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRoundLog(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, rec := range recs {
		got = append(got, rec.Weights...)
	}
	for i, w := range got {
		if w != float64(i+1) {
			t.Fatalf("logged weight %d is %v, want %d (%d weights logged, %d ingested)", i, w, i+1, len(got), 2*batches)
		}
	}
	if len(got) != 2*batches {
		t.Fatalf("%d weights logged, %d ingested", len(got), 2*batches)
	}
	twin, err := dynamic.NewEngine(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	replayed, err := Replay(twin, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatalf("replay diverges from the live Result:\nlive:   %+v\nreplay: %+v", live, replayed)
	}
	t.Logf("%d rounds stepped while %d batches were ingested", len(recs), batches)
}

// TestReadRoundLogArena: ReadRoundLog copies every record's weights
// into shared chunks, each record's window with len == cap, so that an
// append to one record's weights leaves the next record's alone. The
// log mixes lines its own parser reads with a spaced one that takes
// the strict decode, and a record without weights.
func TestReadRoundLogArena(t *testing.T) {
	log := `{"t":0,"w":[1,2.5]}` + "\n" +
		`{"t":1,"w":[3, 4, 5]}` + "\n" +
		`{"t":2}` + "\n" +
		`{"t":3,"w":[6]}` + "\n" +
		`{"t":4,"w":[7,8]}` + "\n"
	recs, err := ReadRoundLog(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2.5}, {3, 4, 5}, nil, {6}, {7, 8}}
	for i := range recs {
		if w := recs[i].Weights; cap(w) != len(w) {
			t.Fatalf("record %d: weights have len %d, cap %d", i, len(w), cap(w))
		}
	}
	for i := range recs {
		recs[i].Weights = append(recs[i].Weights, 99)
	}
	for i := range recs {
		if got := recs[i].Weights[:len(recs[i].Weights)-1]; !slices.Equal(got, want[i]) {
			t.Fatalf("after appending to every record, record %d holds %v, want %v", i, got, want[i])
		}
	}
}

func TestRecoverDispatch(t *testing.T) {
	recs := []RoundRecord{
		{Round: 0},
		{Round: 1, Dispatch: "power-of-2"},
		{Round: 2},
		{Round: 3, Dispatch: "hotspot:4"},
		{Round: 4},
	}
	cases := []struct {
		round int
		want  string
	}{
		{0, ""}, {1, ""}, {2, "power-of-2"}, {3, "power-of-2"},
		{4, "hotspot:4"}, {100, "hotspot:4"},
	}
	for _, tc := range cases {
		if got := RecoverDispatch(recs, tc.round); got != tc.want {
			t.Errorf("RecoverDispatch(round=%d) = %q, want %q", tc.round, got, tc.want)
		}
	}
}

func TestIngestRejections(t *testing.T) {
	t.Run("invalid weight is all-or-nothing", func(t *testing.T) {
		rt := testRuntime(t, Options{})
		n, err := rt.Ingest([]float64{2, 0.5, 3})
		if err == nil || n != 0 {
			t.Fatalf("Ingest = (%d, %v), want (0, weight error)", n, err)
		}
		if st := rt.Stats(); st.Pending != 0 || st.Accepted != 0 {
			t.Fatalf("invalid batch leaked into the backlog: %+v", st)
		}
	})
	t.Run("backpressure", func(t *testing.T) {
		rt := testRuntime(t, Options{MaxPending: 3})
		if _, err := rt.Ingest([]float64{1, 1}); err != nil {
			t.Fatal(err)
		}
		n, err := rt.Ingest([]float64{1, 1})
		if !errors.Is(err, ErrBackpressure) || n != 0 {
			t.Fatalf("Ingest over MaxPending = (%d, %v), want ErrBackpressure", n, err)
		}
		st := rt.Stats()
		if st.Accepted != 2 || st.Rejected != 2 || st.Pending != 2 {
			t.Fatalf("counters after backpressure: %+v", st)
		}
	})
	t.Run("draining", func(t *testing.T) {
		rt := testRuntime(t, Options{})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := rt.Run(ctx); err != nil { // immediate shutdown, empty drain
			t.Fatal(err)
		}
		if _, err := rt.Ingest([]float64{1}); !errors.Is(err, ErrDraining) {
			t.Fatalf("Ingest while draining = %v, want ErrDraining", err)
		}
		if err := rt.Reconfigure(nil, nil, "uniform"); !errors.Is(err, ErrDraining) {
			t.Fatalf("Reconfigure while draining = %v, want ErrDraining", err)
		}
	})
	t.Run("horizon", func(t *testing.T) {
		cfg := twinCfg("steady", 1, 1)
		cfg.Rounds = 1
		eng, err := dynamic.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt := New(eng, "", Options{})
		defer rt.Close()
		if err := rt.StepRound(); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Ingest([]float64{1}); !errors.Is(err, ErrHorizon) {
			t.Fatalf("Ingest past the horizon = %v, want ErrHorizon", err)
		}
	})
}

func TestReconfigureValidatesDispatch(t *testing.T) {
	var log bytes.Buffer
	rt := testRuntime(t, Options{LogWriter: &log})
	if err := rt.Reconfigure(nil, nil, "bogus"); err == nil {
		t.Fatal("Reconfigure accepted an unknown dispatch policy")
	}
	// Ops accumulate across calls; the last dispatch wins.
	if err := rt.Reconfigure([]int{1}, nil, "power-of-2"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Reconfigure([]int{2}, []int{1}, "hotspot:3"); err != nil {
		t.Fatal(err)
	}
	if err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRoundLog(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	want := RoundRecord{Round: 0, Down: []int{1, 2}, Up: []int{1}, Dispatch: "hotspot:3"}
	if !reflect.DeepEqual(recs[0], want) {
		t.Fatalf("record %+v, want %+v", recs[0], want)
	}
	if st := rt.Stats(); st.Dispatch != "hotspot:3" {
		t.Fatalf("stats dispatch %q, want the swapped policy", st.Dispatch)
	}
}

func TestReplayGapError(t *testing.T) {
	eng, err := dynamic.NewEngine(twinCfg("steady", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = Replay(eng, []RoundRecord{{Round: 3}})
	if err == nil || !strings.Contains(err.Error(), "replay gap: record for round 3, engine at round 0") {
		t.Fatalf("Replay over a gap = %v, want a gap error", err)
	}
}

// TestShutdownCheckpointResume is satellite coverage for graceful
// shutdown: interrupting a live run mid-burst yields (a) a snapshot the
// existing container decoder validates and (b) a resumed run whose
// drained final Result is bit-identical to the uninterrupted run's.
func TestShutdownCheckpointResume(t *testing.T) {
	const cut = 25 // rounds stepped before the interrupt
	seed, workers := uint64(5), 2

	// Uninterrupted reference run.
	full, logBytes := driveLive(t, "churn", seed, workers)
	recs, err := ReadRoundLog(bytes.NewReader(logBytes))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: same inputs for the first `cut` rounds, then a
	// cancelled Run drains the (empty) backlog and checkpoints.
	eng, err := dynamic.NewEngine(twinCfg("churn", seed, workers))
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	rt := New(eng, "", Options{OnShutdown: func(data []byte) error {
		snap = append([]byte(nil), data...)
		return nil
	}})
	for r := 0; r < cut; r++ {
		if ws := twinBatch(seed, r); len(ws) > 0 {
			if _, err := rt.Ingest(ws); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.StepRound(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.Run(ctx); err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if snap == nil {
		t.Fatal("shutdown did not checkpoint")
	}

	// The snapshot must be a valid container for the existing decoder.
	dec, err := snapshot.NewDecoder(snap)
	if err != nil {
		t.Fatalf("shutdown snapshot rejected by the container decoder: %v", err)
	}
	_ = dec

	// Resume-on-boot and drain the remaining recorded rounds.
	eng2, err := dynamic.Resume(bytes.NewReader(snap), twinCfg("churn", seed, workers))
	if err != nil {
		t.Fatalf("resuming from the shutdown snapshot: %v", err)
	}
	defer eng2.Close()
	if got := eng2.NextRound(); got != cut {
		t.Fatalf("resumed engine at round %d, want %d", got, cut)
	}
	resumed, err := Replay(eng2, recs) // skips the pre-snapshot records
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resumed run diverges from the uninterrupted one:\nfull:    %+v\nresumed: %+v", full, resumed)
	}
}
