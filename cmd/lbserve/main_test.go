package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	lb "repro"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite RESULTS_serve.txt from TestServeLoadE2E's run")

// server drives one run() invocation: it installs the readyHook seam,
// runs the CLI in a goroutine, and hands back the base URL plus a stop
// function that SIGTERMs the process (the real shutdown path — the
// signal handler is registered before readyHook fires) and waits for
// the graceful exit.
type server struct {
	url  string
	out  *bytes.Buffer
	errc chan error
}

func startServer(t *testing.T, args ...string) *server {
	t.Helper()
	s := &server{out: &bytes.Buffer{}, errc: make(chan error, 1)}
	ready := make(chan string, 1)
	readyHook = func(baseURL string) { ready <- baseURL }
	t.Cleanup(func() { readyHook = nil })
	go func() { s.errc <- run(args, s.out, io.Discard) }()
	select {
	case s.url = <-ready:
	case err := <-s.errc:
		t.Fatalf("server exited before ready: %v\n%s", err, s.out)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return s
}

func (s *server) stop(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-s.errc:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, s.out)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

func postJSON(t *testing.T, url string, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func ingestBatch(t *testing.T, baseURL string, weights []float64) {
	t.Helper()
	body, _ := json.Marshal(weights)
	code, resp := postJSON(t, baseURL+"/ingest", string(body))
	if code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, resp)
	}
}

var arrivedRe = regexp.MustCompile(`arrived:\s+(\d+) tasks`)

func parseArrived(t *testing.T, out string) int {
	t.Helper()
	m := arrivedRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no arrived line in output:\n%s", out)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestServeSIGTERMCheckpointResume is the graceful-shutdown e2e: a
// SIGTERM mid-run drains the backlog, writes a snapshot the container
// decoder validates and a consecutive round log, loses zero tasks, and
// a reboot with the same flags resumes from the snapshot, appends to
// the same log file and carries the counters forward. A third boot
// finds the log's last newline cut and rewrites the log.
func TestServeSIGTERMCheckpointResume(t *testing.T) {
	tmp := t.TempDir()
	logPath := filepath.Join(tmp, "run.jsonl")
	snapPath := filepath.Join(tmp, "lbserve.snap")
	args := []string{
		"-addr", "127.0.0.1:0", "-graph", "complete", "-n", "64",
		"-proto", "user", "-seed", "3", "-workers", "2", "-window", "25",
		"-max-rounds", "4096", "-batch", "32", "-max-interval", "2ms",
		"-roundlog", logPath, "-snapshot", snapPath,
	}

	s := startServer(t, args...)
	const batches, perBatch = 40, 25
	for i := 0; i < batches; i++ {
		ws := make([]float64, perBatch)
		for j := range ws {
			ws[j] = 1 + float64((i+j)%4)
		}
		ingestBatch(t, s.url, ws)
	}
	// The obs endpoints share the front door's listener.
	if resp, err := http.Get(s.url + "/debug/vars"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: %v", err)
	} else {
		resp.Body.Close()
	}
	time.Sleep(20 * time.Millisecond) // let a few rounds tick mid-burst
	s.stop(t)

	sent := batches * perBatch
	if got := parseArrived(t, s.out.String()); got != sent {
		t.Fatalf("first run arrived %d tasks, ingested %d — tasks lost\n%s", got, sent, s.out)
	}

	// The snapshot must validate under the existing container decoder.
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("no snapshot after SIGTERM: %v", err)
	}
	if _, err := snapshot.NewDecoder(data); err != nil {
		t.Fatalf("snapshot rejected by the container decoder: %v", err)
	}
	// The round log must parse, be consecutive (ReadRoundLog enforces
	// it) and account for every ingested task.
	checkLog := func(want int) (data []byte, fi os.FileInfo) {
		t.Helper()
		data, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := lb.ReadRoundLog(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("round log: %v", err)
		}
		logged := 0
		for i := range recs {
			logged += len(recs[i].Weights)
		}
		if logged != want {
			t.Fatalf("round log records %d arrivals, ingested %d", logged, want)
		}
		if fi, err = os.Stat(logPath); err != nil {
			t.Fatal(err)
		}
		return data, fi
	}
	firstLog, firstInfo := checkLog(sent)

	// Reboot with the same flags: resume-on-boot.
	s2 := startServer(t, args...)
	if !strings.Contains(s2.out.String(), "resumed at round") {
		t.Fatalf("second boot did not resume:\n%s", s2.out)
	}
	const moreBatches = 10
	for i := 0; i < moreBatches; i++ {
		ws := make([]float64, perBatch)
		for j := range ws {
			ws[j] = 2
		}
		ingestBatch(t, s2.url, ws)
	}
	s2.stop(t)
	// Resume restores the books: the final total spans both runs.
	total := sent + moreBatches*perBatch
	if got := parseArrived(t, s2.out.String()); got != total {
		t.Fatalf("resumed run arrived %d tasks, want %d across both runs\n%s", got, total, s2.out)
	}
	// The shutdown checkpoint follows the last logged round, so the
	// reboot kept the log file and only appended to it.
	secondLog, secondInfo := checkLog(total)
	if !os.SameFile(firstInfo, secondInfo) {
		t.Fatal("resume replaced a round log it kept whole")
	}
	if !bytes.HasPrefix(secondLog, firstLog) {
		t.Fatalf("first run's log is not a prefix of the resumed run's:\n%s\nthen:\n%s", firstLog, secondLog)
	}

	// A last line that lost its newline would merge with the next
	// record: resume rewrites the log, which reads back whole after
	// one more round.
	if err := os.WriteFile(logPath, secondLog[:len(secondLog)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	cutInfo, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	s3 := startServer(t, args...)
	ingestBatch(t, s3.url, []float64{3})
	s3.stop(t)
	if got := parseArrived(t, s3.out.String()); got != total+1 {
		t.Fatalf("third run arrived %d tasks, want %d\n%s", got, total+1, s3.out)
	}
	thirdLog, thirdInfo := checkLog(total + 1)
	if os.SameFile(cutInfo, thirdInfo) {
		t.Fatal("resume appended to a round log whose last newline was cut")
	}
	if !bytes.HasPrefix(thirdLog, secondLog) {
		t.Fatalf("rewritten log does not keep the earlier records:\n%s\nthen:\n%s", secondLog, thirdLog)
	}
}

// TestServeRefusesShortRoundLog: a reboot whose round log was deleted
// after a SIGTERM must not resume with it, or it would log the
// snapshot's round after nothing and the next boot could not read the
// log. It fails, naming the log, its record count and the snapshot's
// round, and leaves the snapshot as it was and no log. Without
// -roundlog the same snapshot still resumes.
func TestServeRefusesShortRoundLog(t *testing.T) {
	tmp := t.TempDir()
	logPath := filepath.Join(tmp, "run.jsonl")
	snapPath := filepath.Join(tmp, "lbserve.snap")
	args := []string{
		"-addr", "127.0.0.1:0", "-graph", "complete", "-n", "32",
		"-proto", "user", "-seed", "5", "-workers", "1",
		"-max-rounds", "4096", "-batch", "8", "-max-interval", "2ms",
		"-snapshot", snapPath,
	}
	s := startServer(t, append(args, "-roundlog", logPath)...)
	ingestBatch(t, s.url, []float64{1, 2, 3, 4})
	s.stop(t)
	m := regexp.MustCompile(`stopped at round (\d+)`).FindStringSubmatch(s.out.String())
	if m == nil || m[1] == "0" {
		t.Fatalf("first run stepped no round:\n%s", s.out)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(logPath); err != nil {
		t.Fatal(err)
	}

	booted := make(chan struct{}, 1)
	readyHook = func(string) { booted <- struct{}{} }
	errc := make(chan error, 1)
	go func() { errc <- run(append(args, "-roundlog", logPath), io.Discard, io.Discard) }()
	select {
	case err = <-errc:
	case <-booted:
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		<-errc
		t.Fatal("lbserve resumed from a snapshot whose round log is gone")
	case <-time.After(10 * time.Second):
		t.Fatal("boot without the round log neither failed nor served")
	}
	want := fmt.Sprintf("round log %s holds 0 records, but the snapshot resumes at round %s", logPath, m[1])
	if err == nil || err.Error() != want {
		t.Fatalf("boot without the round log: %v, want %q", err, want)
	}
	if got, err := os.ReadFile(snapPath); err != nil || !bytes.Equal(got, snap) {
		t.Fatalf("refused boot changed the snapshot (%v)", err)
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("refused boot left a round log behind: %v", err)
	}

	s2 := startServer(t, args...)
	s2.stop(t)
	if !strings.Contains(s2.out.String(), "resumed at round "+m[1]) {
		t.Fatalf("boot without -roundlog did not resume at round %s:\n%s", m[1], s2.out)
	}
}

// TestRewriteRoundLog: resume replaces the round log with the records
// it keeps, and a rewrite that fails midway leaves the old log whole.
func TestRewriteRoundLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	recs := []lb.RoundRecord{
		{Round: 0, Weights: []float64{1, 2.5}},
		{Round: 1, Down: []int{3}, Dispatch: "power-of-2"},
		{Round: 2, Weights: []float64{7}},
	}
	var old bytes.Buffer
	if err := lb.WriteRoundLog(&old, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old.Bytes(), 0o640); err != nil {
		t.Fatal(err)
	}
	onlyLog := func() {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != "run.jsonl" {
			t.Fatalf("directory holds %v, want only run.jsonl", ents)
		}
	}

	// An encode error on the second record: nothing replaces the log.
	bad := []lb.RoundRecord{recs[0], {Round: 1, Weights: []float64{math.NaN()}}, recs[2]}
	if err := rewriteRoundLog(path, bad); err == nil || !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Fatalf("rewrite with a NaN weight: %v, want the encode error", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old.Bytes()) {
		t.Fatalf("failed rewrite changed the log (%v):\n%s", err, got)
	}
	onlyLog()

	keep := recs[:2]
	if err := rewriteRoundLog(path, keep); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := lb.WriteRoundLog(&want, keep); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("rewritten log (%v):\n%s\nwant:\n%s", err, got, want.Bytes())
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Mode().Perm() != 0o640 {
		t.Fatalf("rewritten log mode %v, want the old log's 0640", fi.Mode())
	}
	onlyLog()
}

// TestReopenRoundLog: resume appends to a log that holds no record
// past the snapshot's round and ends in a newline, in place, and
// rewrites any other with the records before that round. Each case
// then logs the snapshot's round, and the log must read back
// consecutive. A log that ends before the snapshot's round, or is
// missing, is refused, and the directory is left as it was.
func TestReopenRoundLog(t *testing.T) {
	recs := []lb.RoundRecord{
		{Round: 0, Weights: []float64{1, 2.5}},
		{Round: 1, Down: []int{3}, Dispatch: "power-of-2"},
		{Round: 2, Weights: []float64{7}},
	}
	logOf := func(recs []lb.RoundRecord) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := lb.WriteRoundLog(&b, recs); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	whole := logOf(recs)
	for _, tc := range []struct {
		name    string
		log     []byte // nil: no log file
		next    int
		kept    []lb.RoundRecord
		inPlace bool
		refused bool
	}{
		{"whole", whole, 3, recs, true, false},
		{"empty", []byte{}, 0, nil, true, false},
		{"records past the snapshot", whole, 2, recs[:2], false, false},
		{"last newline cut", whole[:len(whole)-1], 3, recs, false, false},
		{"no log", nil, 0, nil, false, false},
		{"short log", logOf(recs[:2]), 3, nil, false, true},
		{"no log past round 0", nil, 3, nil, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.jsonl")
			var read []lb.RoundRecord
			var before os.FileInfo
			if tc.log != nil {
				if err := os.WriteFile(path, tc.log, 0o644); err != nil {
					t.Fatal(err)
				}
				var err error
				if read, err = lb.ReadRoundLog(bytes.NewReader(tc.log)); err != nil {
					t.Fatal(err)
				}
				if before, err = os.Stat(path); err != nil {
					t.Fatal(err)
				}
			}
			f, err := reopenRoundLog(path, read, tc.next)
			if tc.refused {
				want := fmt.Sprintf("round log %s holds %d records, but the snapshot resumes at round %d", path, len(read), tc.next)
				if err == nil || err.Error() != want {
					t.Fatalf("reopen: %v, want %q", err, want)
				}
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				switch got, rerr := os.ReadFile(path); {
				case tc.log == nil && len(ents) != 0:
					t.Fatalf("refused resume left %v in the directory, want nothing", ents)
				case tc.log != nil && (len(ents) != 1 || rerr != nil || !bytes.Equal(got, tc.log)):
					t.Fatalf("refused resume changed the directory to %v, log %q (%v)", ents, got, rerr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			next := lb.RoundRecord{Round: tc.next, Weights: []float64{4}}
			if err := lb.WriteRoundLog(f, []lb.RoundRecord{next}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := logOf(append(slices.Clone(tc.kept), next)); !bytes.Equal(got, want) {
				t.Fatalf("log after one more round:\n%s\nwant:\n%s", got, want)
			}
			if before != nil {
				after, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if os.SameFile(before, after) != tc.inPlace {
					t.Fatalf("log kept in place: %v, want %v", !tc.inPlace, tc.inPlace)
				}
			}
		})
	}
}

// BenchmarkReopenRoundLog: what a resumed lbserve does to its round
// log before the first round, on a serve-live-sized log (1,539 rounds
// of 300 Pareto(2) weights capped at 20, 8.6 MB, the log
// BenchmarkReadRoundLog reads). Each op first writes the log afresh
// and unsynced, as a clean shutdown leaves it, outside the timer.
// whole resumes after the last record, so the log is kept in place;
// cut resumes one round earlier, so the log is rewritten.
func BenchmarkReopenRoundLog(b *testing.B) {
	r := rng.NewSeeded(0x5e7e)
	recs := make([]lb.RoundRecord, 1539)
	for i := range recs {
		w := make([]float64, 300)
		for j := range w {
			w[j] = math.Min(r.Pareto(1, 2), 20)
		}
		recs[i] = lb.RoundRecord{Round: i, Weights: w}
	}
	var log bytes.Buffer
	if err := lb.WriteRoundLog(&log, recs); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "run.jsonl")
	for _, bc := range []struct {
		name string
		next int
	}{
		{"whole", len(recs)},
		{"cut", len(recs) - 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				f, err := reopenRoundLog(path, recs, bc.next)
				if err != nil {
					b.Fatal(err)
				}
				f.Close()
			}
		})
	}
}

// slowWriter stalls every write, as a stdout piped to a slow log
// collector does, which widens any gap between the server answering
// and its signal handler going live.
type slowWriter struct{ bytes.Buffer }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(50 * time.Millisecond)
	return w.Buffer.Write(p)
}

// TestServeSIGTERMRightAfterHealthy boots the way a supervisor sees
// the server, with no readyHook: it polls /healthz until the first 200
// and SIGTERMs at once. The signal must already take the graceful
// path, so the snapshot is written and the summary printed.
func TestServeSIGTERMRightAfterHealthy(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	snapPath := filepath.Join(t.TempDir(), "lbserve.snap")
	var out slowWriter
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-addr", addr, "-graph", "complete", "-n", "32",
			"-proto", "user", "-workers", "1", "-snapshot", snapPath}, &out, io.Discard)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-errc:
			t.Fatalf("server exited before it was healthy: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never answered 200")
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}

	if got := parseArrived(t, out.String()); got != 0 {
		t.Fatalf("arrived %d tasks, none were ingested\n%s", got, out.String())
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("no snapshot after SIGTERM: %v", err)
	}
	if _, err := snapshot.NewDecoder(data); err != nil {
		t.Fatalf("snapshot rejected by the container decoder: %v", err)
	}
}

// TestServeLoadE2E pushes >=100k arrivals through the HTTP front door
// from concurrent clients and asserts zero task loss via the
// conservation line. It logs a throughput/latency table, and with
// -update (make results-serve) rewrites RESULTS_serve.txt at the repo
// root with it.
func TestServeLoadE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("load e2e skipped in -short")
	}
	s := startServer(t,
		"-addr", "127.0.0.1:0", "-graph", "complete", "-n", "256",
		"-proto", "user", "-seed", "1", "-window", "100",
		"-max-rounds", "1048576", "-batch", "8192", "-max-interval", "5ms",
		"-dispatch", "power-of-2",
	)

	const (
		clients  = 8
		requests = 13 // per client
		perBatch = 1000
	)
	var (
		mu        sync.Mutex
		latencies []time.Duration
	)
	body, _ := json.Marshal(func() []float64 {
		ws := make([]float64, perBatch)
		for i := range ws {
			ws[i] = 1 + float64(i%7)/2
		}
		return ws
	}())
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, requests)
			for i := 0; i < requests; i++ {
				t0 := time.Now()
				resp, err := http.Post(s.url+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest: %d", resp.StatusCode)
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			latencies = append(latencies, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if t.Failed() {
		t.FailNow()
	}
	sent := clients * requests * perBatch // 104k

	s.stop(t)
	if got := parseArrived(t, s.out.String()); got != sent {
		t.Fatalf("arrived %d tasks, ingested %d — tasks lost\n%s", got, sent, s.out)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) time.Duration { return latencies[int(p*float64(len(latencies)-1))] }
	var table strings.Builder
	fmt.Fprintf(&table, "# serve — lbserve HTTP load e2e (regenerated by: make results-serve)\n")
	fmt.Fprintf(&table, "# n=256 complete graph, user protocol, power-of-2 dispatch, adaptive rounds (batch 8192, max-interval 5ms)\n")
	fmt.Fprintf(&table, "# %d concurrent clients x %d requests x %d tasks/batch; zero task loss asserted via arrived == ingested\n\n", clients, requests, perBatch)
	fmt.Fprintf(&table, "tasks ingested     %d\n", sent)
	fmt.Fprintf(&table, "wall time          %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(&table, "throughput         %.0f tasks/sec\n", float64(sent)/elapsed.Seconds())
	fmt.Fprintf(&table, "request latency    p50 %v  p95 %v  p99 %v  max %v\n",
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond),
		q(0.99).Round(time.Microsecond), latencies[len(latencies)-1].Round(time.Microsecond))
	fmt.Fprintf(&table, "task loss          0 (conservation: arrived == ingested at shutdown)\n")
	t.Logf("\n%s", table.String())
	if *update {
		if err := os.WriteFile(filepath.Join("..", "..", "RESULTS_serve.txt"), []byte(table.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
