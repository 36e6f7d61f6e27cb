package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// runCLI invokes run() with stdout/stderr captured.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errw bytes.Buffer
	err = run(args, &out, &errw)
	return out.String(), errw.String(), err
}

var smallRun = []string{
	"-graph", "complete", "-n", "64", "-proto", "resource",
	"-rounds", "120", "-window", "40", "-workers", "2", "-seed", "1",
}

// TestRunSummary: the plain CLI prints the config header, window table
// and final summary on stdout and nothing on stderr.
func TestRunSummary(t *testing.T) {
	stdout, stderr, err := runCLI(t, smallRun...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"graph:", "protocol:", "arrived:", "migrations:", "steady overload"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout)
		}
	}
	if stderr != "" {
		t.Errorf("unobserved run wrote to stderr:\n%s", stderr)
	}
}

// TestShardDebugGoesToStderr: -sharddebug telemetry renders on stderr
// only, so the stdout table and summary stay machine-parseable.
func TestShardDebugGoesToStderr(t *testing.T) {
	args := append([]string{"-sharddebug"}, smallRun...)
	stdout, stderr, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"[lanes]", "[shards]", "[phases]"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %s lines:\n%s", want, stderr)
		}
		if strings.Contains(stdout, want) {
			t.Errorf("%s debug lines leaked into stdout:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "service=") {
		t.Errorf("[phases] line missing per-phase timings:\n%s", stderr)
	}
}

// TestShardDebugDeterministic: the debug stream must not perturb the
// simulation — stdout is byte-identical with and without -sharddebug.
func TestShardDebugDeterministic(t *testing.T) {
	plain, _, err := runCLI(t, smallRun...)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	args := append([]string{"-sharddebug"}, smallRun...)
	debug, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("debug run: %v", err)
	}
	if plain != debug {
		t.Fatalf("-sharddebug changed stdout:\nplain:\n%s\ndebug:\n%s", plain, debug)
	}
}

// TestMetricsEndpoint: -metrics-addr serves Prometheus text with
// fleet, per-shard, lane and phase-timing series plus expvar.
func TestMetricsEndpoint(t *testing.T) {
	var body, vars string
	metricsHook = func(base string) {
		body = httpGet(t, base+"/metrics")
		vars = httpGet(t, base+"/debug/vars")
	}
	defer func() { metricsHook = nil }()

	args := append([]string{"-metrics-addr", "127.0.0.1:0", "-synthracks", "4"}, smallRun...)
	stdout, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout, "metrics:   http://127.0.0.1:") {
		t.Errorf("stdout missing metrics banner:\n%s", stdout)
	}
	for _, want := range []string{
		"lbdyn_overload_frac ",
		`lbdyn_shard_overload_frac{shard="0"}`,
		`lbdyn_exchange_inbound_total{shard="0"}`,
		`lbdyn_phase_nanos_total{shard="seq",phase="arrivals"}`,
		`lbdyn_domain_overload_frac{level="rack",domain="rack0"}`,
		"lbdyn_events_published_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", body)
	}
	if !strings.Contains(vars, `"lbdyn"`) {
		t.Errorf("/debug/vars missing lbdyn export:\n%s", vars)
	}
}

// TestEventsOut: -events-out writes a JSONL stream our own reader
// accepts, covering fleet, shard, domain and telemetry events.
func TestEventsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	args := append([]string{"-events-out", path, "-synthracks", "4"}, smallRun...)
	if _, _, err := runCLI(t, args...); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	if err != nil {
		t.Fatalf("ReadEvents of -events-out file: %v", err)
	}
	kinds := map[obs.Kind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	for _, want := range []obs.Kind{
		obs.KindWindow, obs.KindShardWindow, obs.KindDomainWindow,
		obs.KindLanes, obs.KindShardCost, obs.KindPhase,
	} {
		if kinds[want] == 0 {
			t.Errorf("event stream has no %s events (kinds: %v)", want, kinds)
		}
	}
}

// TestCheckpointCrashResume: a run killed by -crash-at-round exits
// with an error, its checkpoint files are byte-identical to the
// uninterrupted run's, and resuming from the last one reproduces the
// baseline summary and every later checkpoint exactly.
func TestCheckpointCrashResume(t *testing.T) {
	dir := t.TempDir()
	baseDir := filepath.Join(dir, "base")
	crashDir := filepath.Join(dir, "crash")
	resDir := filepath.Join(dir, "res")
	for _, d := range []string{baseDir, crashDir, resDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	common := []string{
		"-graph", "complete", "-n", "96", "-rounds", "120", "-window", "40",
		"-workers", "2", "-seed", "4", "-churn", "0.1",
		"-synthracks", "4", "-synthzones", "2", "-rehome", "locality",
		"-loss", "0.1", "-retry", "1:4:12", "-partition", "zone1:30:80",
		"-alert-budget", "0.3", "-alert-windows", "2",
		"-checkpoint-every", "40",
	}
	base, _, err := runCLI(t, append([]string{"-checkpoint-dir", baseDir}, common...)...)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	_, _, err = runCLI(t, append([]string{"-checkpoint-dir", crashDir, "-crash-at-round", "100"}, common...)...)
	if err == nil || !strings.Contains(err.Error(), "crash-at-round") {
		t.Fatalf("crash run error = %v, want the -crash-at-round notice", err)
	}
	readSnap := func(dir, name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, name := range []string{"ckpt-000040.snap", "ckpt-000080.snap"} {
		if !bytes.Equal(readSnap(baseDir, name), readSnap(crashDir, name)) {
			t.Fatalf("crashed run's %s differs from the baseline's", name)
		}
	}
	snap := filepath.Join(crashDir, "ckpt-000080.snap")
	resumed, _, err := runCLI(t, append([]string{"-checkpoint-dir", resDir, "-resume", snap}, common...)...)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	cut := func(s string) string {
		t.Helper()
		i := strings.Index(s, "arrived:")
		if i < 0 {
			t.Fatalf("no summary in output:\n%s", s)
		}
		return s[i:]
	}
	if cut(base) != cut(resumed) {
		t.Fatalf("resumed summary differs from baseline:\nbase:\n%s\nresumed:\n%s", cut(base), cut(resumed))
	}
	if !bytes.Equal(readSnap(baseDir, "ckpt-000120.snap"), readSnap(resDir, "ckpt-000120.snap")) {
		t.Fatal("post-resume checkpoint differs from the baseline's")
	}

	// Corruption and config drift must fail the resume loudly.
	trunc := filepath.Join(dir, "trunc.snap")
	if err := os.WriteFile(trunc, readSnap(crashDir, "ckpt-000080.snap")[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := runCLI(t, append([]string{"-resume", trunc}, common...)...); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("truncated snapshot resume error = %v, want a checksum failure", err)
	}
	drift := append([]string{"-resume", snap}, common...)
	for i, a := range drift {
		if a == "-seed" {
			drift[i+1] = "5"
		}
	}
	if _, _, err := runCLI(t, drift...); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed-drift resume error = %v, want a seed mismatch", err)
	}
}

// TestAlertsSurface: domain SLO alerts render on -sharddebug stderr
// and export as Prometheus series alongside the checkpoint counters.
func TestAlertsSurface(t *testing.T) {
	var body string
	metricsHook = func(base string) { body = httpGet(t, base+"/metrics") }
	defer func() { metricsHook = nil }()

	dir := t.TempDir()
	args := []string{
		"-sharddebug", "-metrics-addr", "127.0.0.1:0",
		"-graph", "complete", "-n", "100", "-rounds", "150", "-window", "50",
		"-workers", "2", "-seed", "2", "-rho", "0.95",
		"-synthracks", "4", "-alert-budget", "0.01", "-alert-windows", "1",
		"-checkpoint-every", "50", "-checkpoint-dir", dir,
	}
	_, stderr, err := runCLI(t, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr, "[alert]") || !strings.Contains(stderr, "FIRING") {
		t.Errorf("stderr missing [alert] lines:\n%s", stderr)
	}
	if !strings.Contains(stderr, "[ckpt]") {
		t.Errorf("stderr missing [ckpt] lines:\n%s", stderr)
	}
	for _, want := range []string{
		"lbdyn_alerts_fired_total ",
		"lbdyn_checkpoints_total ",
		"lbdyn_checkpoint_last_round ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s\n%s", want, body)
		}
	}
}

// TestBadFlag: flag errors surface as errors, not os.Exit, and name
// the flag on stderr.
func TestBadFlag(t *testing.T) {
	_, stderr, err := runCLI(t, "-no-such-flag")
	if err == nil {
		t.Fatal("run accepted an unknown flag")
	}
	if !strings.Contains(stderr, "no-such-flag") {
		t.Errorf("stderr does not name the bad flag:\n%s", stderr)
	}
	if _, _, err := runCLI(t, "stray-arg"); err == nil {
		t.Fatal("run accepted a stray positional argument")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b)
}

// TestCheckpointFlagValidation pins the error message for each invalid
// checkpoint-flag combination. A -checkpoint-dir that is missing or is
// not a directory fails before round 0. The mutually-exclusive
// -resume + -crash-at-round pair fails because the crash drill belongs
// to the run that WRITES the checkpoint: a resumed run at or past the
// crash round would silently never fire it.
func TestCheckpointFlagValidation(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		extra   []string
		wantErr string
	}{
		{
			name:    "checkpoint-dir without cadence",
			extra:   []string{"-checkpoint-dir", t.TempDir()},
			wantErr: "-checkpoint-dir needs -checkpoint-every",
		},
		{
			name:    "checkpoint-dir missing",
			extra:   []string{"-checkpoint-every", "50", "-checkpoint-dir", missing},
			wantErr: "-checkpoint-dir: stat " + missing + ": no such file or directory",
		},
		{
			name:    "checkpoint-dir a regular file",
			extra:   []string{"-checkpoint-every", "50", "-checkpoint-dir", file},
			wantErr: "-checkpoint-dir " + file + " is not a directory",
		},
		{
			name:    "resume with crash drill",
			extra:   []string{"-resume", "no-such.snap", "-crash-at-round", "10"},
			wantErr: "-resume and -crash-at-round are mutually exclusive: the crash drill scripts the run that writes the checkpoint; resume without it (or rerun the original flags to crash again)",
		},
		{
			name:    "resume with crash drill and cadence",
			extra:   []string{"-resume", "no-such.snap", "-crash-at-round", "60", "-checkpoint-every", "50"},
			wantErr: "-resume and -crash-at-round are mutually exclusive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, _, err := runCLI(t, append(append([]string{}, smallRun...), tc.extra...)...)
			if err == nil {
				t.Fatalf("run accepted %v", tc.extra)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want it to contain %q", err, tc.wantErr)
			}
			if stdout != "" {
				t.Fatalf("refused only after starting the run:\n%s", stdout)
			}
		})
	}
}

// TestSojournSummaryAlwaysOn: the sojourn/hops percentile line comes
// from the always-on lifecycle histograms — no tracing flags needed.
func TestSojournSummaryAlwaysOn(t *testing.T) {
	stdout, _, err := runCLI(t, smallRun...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout, "sojourn:    p50 ") || !strings.Contains(stdout, "| hops p99 ") {
		t.Errorf("summary missing the sojourn/hops percentile line:\n%s", stdout)
	}
}

// TestTraceOut: -trace-sample/-trace-out record sampled lifecycles as
// JSONL that the trace reader parses back, and the byte stream is
// identical for every worker count.
func TestTraceOut(t *testing.T) {
	dir := t.TempDir()
	runTrace := func(workers string) string {
		t.Helper()
		path := filepath.Join(dir, "trace-w"+workers+".jsonl")
		args := append([]string{"-trace-sample", "0.25", "-trace-out", path}, smallRun...)
		args = append(args, "-workers", workers) // later flag wins
		stdout, _, err := runCLI(t, args...)
		if err != nil {
			t.Fatalf("run (workers=%s): %v", workers, err)
		}
		if !strings.Contains(stdout, "trace:     sample=0.25") {
			t.Errorf("header missing the trace line:\n%s", stdout)
		}
		return path
	}
	p2 := runTrace("2")
	f, err := os.Open(p2)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadRecords(f)
	f.Close()
	if err != nil {
		t.Fatalf("ReadRecords of -trace-out file: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("trace file is empty at sample=0.25")
	}
	ops := map[trace.Op]int{}
	for i := range recs {
		ops[recs[i].Op]++
	}
	if ops[trace.OpArrive] == 0 || ops[trace.OpDepart] == 0 {
		t.Errorf("trace stream lacks arrivals or departures (ops: %v)", ops)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	b8, err := os.ReadFile(runTrace("8"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b2, b8) {
		t.Error("trace stream differs between -workers 2 and -workers 8")
	}
}

// TestTraceFlagValidation pins the tracing flag errors.
func TestTraceFlagValidation(t *testing.T) {
	if _, _, err := runCLI(t, append([]string{"-trace-out", "x.jsonl"}, smallRun...)...); err == nil ||
		!strings.Contains(err.Error(), "-trace-out needs -trace-sample") {
		t.Errorf("-trace-out without sampling: got %v", err)
	}
	if _, _, err := runCLI(t, append([]string{"-trace-sample", "1.5"}, smallRun...)...); err == nil ||
		!strings.Contains(err.Error(), "must lie in [0, 1]") {
		t.Errorf("-trace-sample 1.5: got %v", err)
	}
}
