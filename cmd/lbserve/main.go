// Command lbserve runs the live serving runtime: a threshold
// load-balancing fleet whose arrivals come in through an HTTP front
// door while rounds tick on a wall clock (or adaptively on backlog)
// and the balancing protocols, service, churn and fault plans of the
// offline engine all keep running underneath.
//
//	lbserve -graph complete -n 1000 -proto user -addr :8080
//	lbserve -graph expander -n 4096 -k 8 -proto resource -interval 10ms
//	lbserve -n 500 -roundlog run.jsonl -snapshot lbserve.snap
//
// Endpoints (all on -addr, alongside /metrics, /debug/vars and
// /debug/pprof/):
//
//	POST /ingest   — JSON array of task weights, admitted into the
//	                 next round
//	POST /reconfig — {"down":[...],"up":[...],"dispatch":"..."}:
//	                 drain/add resources, swap the dispatch policy
//	                 (uniform | hotspot:<r> | power-of-<d> |
//	                 speed-weighted) without stopping the world
//	GET  /statusz  — runtime stats JSON
//	GET  /healthz  — liveness
//
// Every admitted batch is recorded to the -roundlog (JSONL, one
// record per round): replaying it through the lockstep engine with
// the same flags reproduces the live run's Result bit-for-bit.
//
// On SIGTERM/SIGINT the runtime stops ingest, drains the staged
// backlog, checkpoints the full engine state to -snapshot (atomic
// write) and exits; a restart with the same flags finds the snapshot
// and resumes exactly where it stopped, recovering any online
// dispatch swap from the round log. A log whose records all precede
// the snapshot's round and whose last line is whole, as a clean
// shutdown leaves it, is appended to in place; any other is first
// replaced atomically with its records before the snapshot's round. A
// log that is missing or ends before the snapshot's round stops the
// boot with an error and is left as it was: the rounds it lacks are
// lost, and a log continued past them could never be read back.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	lb "repro"
	"repro/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lbserve:", err)
		os.Exit(2)
	}
}

// readyHook, when non-nil, receives the front door's base URL once the
// runtime is serving — the seam the CLI tests drive ingest through.
var readyHook func(baseURL string)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lbserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphKind = fs.String("graph", "complete", "complete|grid|torus|hypercube|expander|gnp|cliquependant")
		n         = fs.Int("n", 1000, "number of resources (rounded per family)")
		k         = fs.Int("k", 8, "family parameter: pendant links / expander degree")
		p         = fs.Float64("p", 0.1, "G(n,p) edge probability")
		proto     = fs.String("proto", "user", "user|resource|usergraph|mixed")
		alpha     = fs.Float64("alpha", 1, "user-protocol migration constant")
		eps       = fs.Float64("eps", 0.5, "threshold slack epsilon")
		lazy      = fs.Bool("lazy", false, "use the 1/2-lazy walk (resource protocol)")
		seed      = fs.Uint64("seed", 1, "RNG seed")
		workers   = fs.Int("workers", 0, "round-pipeline shards (0 = GOMAXPROCS; results identical for any value)")
		window    = fs.Int("window", 100, "metrics window length in rounds")
		maxRounds = fs.Int("max-rounds", 1<<20, "round horizon: the runtime stops after this many rounds")

		service = fs.String("service", "weight", "weight (proportional to weight) | geom")
		svcRate = fs.Float64("svcrate", 1, "weight-units served per resource per round")
		geomP   = fs.Float64("geomp", 0.05, "geometric per-round departure probability")

		dispatch = fs.String("dispatch", "uniform", "initial dispatch policy: uniform | hotspot:<r> | power-of-<d> | speed-weighted")

		addr        = fs.String("addr", ":8080", "front-door listen address (ingest, reconfig, status, metrics, pprof)")
		interval    = fs.Duration("interval", 0, "fixed round period (0 = adaptive: step at -batch backlog or -max-interval)")
		batch       = fs.Int("batch", 256, "adaptive-mode backlog that triggers a round")
		maxInterval = fs.Duration("max-interval", 50*time.Millisecond, "adaptive-mode bound on the wait between rounds")
		maxPending  = fs.Int("max-pending", 1<<20, "ingest backlog bound (past it, /ingest answers 503)")

		roundLog = fs.String("roundlog", "", "round-log JSONL path (append; required for twin replay and dispatch recovery on resume)")
		snapPath = fs.String("snapshot", "", "checkpoint path: written atomically on SIGTERM, resumed from on boot when present")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	g, err := cli.GraphSpec{Kind: *graphKind, N: *n, K: *k, P: *p, Seed: *seed}.Build()
	if err != nil {
		return err
	}

	svc, err := cli.Service(*service, *svcRate, *geomP)
	if err != nil {
		return err
	}

	disp, err := lb.ParseLiveDispatch(*dispatch)
	if err != nil {
		return err
	}
	kind, err := cli.Protocol(*proto)
	if err != nil {
		return err
	}
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}

	sc := lb.DynamicScenario{
		Graph:    g,
		Protocol: kind,
		Alpha:    *alpha,
		Epsilon:  *eps,
		LazyWalk: *lazy,
		Seed:     *seed,
		Workers:  nWorkers,
		Rounds:   *maxRounds,
		Window:   *window,
		Arrivals: lb.ExternalArrivals(),
		Service:  svc,
		Dispatch: disp,
		Obs:      lb.NewObsBroker(),
	}

	opts := lb.LiveOptions{
		Interval:    *interval,
		BatchTarget: *batch,
		MaxInterval: *maxInterval,
		MaxPending:  *maxPending,
	}
	if *snapPath != "" {
		path := *snapPath
		opts.OnShutdown = func(data []byte) error {
			return lb.WriteSnapshotFile(path, data)
		}
	}

	// Resume-on-boot: a snapshot left by a previous SIGTERM restores
	// the engine at its checkpointed round; the round log recovers any
	// dispatch swap made online since that run booted. Without a
	// snapshot the runtime starts fresh at round 0.
	var (
		rt       *lb.LiveRuntime
		prevRecs []lb.RoundRecord
		resumed  = false
	)
	if *roundLog != "" {
		if f, err := os.Open(*roundLog); err == nil {
			prevRecs, err = lb.ReadRoundLog(f)
			f.Close()
			if err != nil {
				return err
			}
		}
	}
	if *snapPath != "" {
		if f, err := os.Open(*snapPath); err == nil {
			rt, err = sc.ResumeLiveRuntime(f, prevRecs, opts)
			f.Close()
			if err != nil {
				return fmt.Errorf("resuming from %s: %w", *snapPath, err)
			}
			defer rt.Close()
			resumed = true
		}
	}

	// The round log is write-ahead: on a fresh boot it restarts empty;
	// on resume, records past the snapshot's round (stepped after the
	// last checkpoint by a run that died uncheckpointed) are dropped so
	// the log stays consecutive with what the engine will re-run, and a
	// log that ends before that round is refused.
	var logFile *os.File
	if *roundLog != "" {
		if resumed {
			logFile, err = reopenRoundLog(*roundLog, prevRecs, rtNextRound(rt))
		} else {
			logFile, err = os.Create(*roundLog)
		}
		if err != nil {
			return err
		}
		defer logFile.Close()
		opts.LogWriter = logFile
	}

	if rt == nil {
		if rt, err = sc.LiveRuntime(opts); err != nil {
			return err
		}
		defer rt.Close()
	} else if logFile != nil {
		// The resumed runtime was built before the log file reopened;
		// re-wrap it with the writer attached.
		rt.SetLogWriter(logFile)
	}

	// One mux serves the front door and the observability endpoints.
	exp := lb.NewObsExporter(sc.Obs, 8192)
	exp.PublishExpvar()
	mux := exp.Mux()
	lb.LiveRoutes(mux, rt)
	// The signal handler must be live before the listener accepts: a
	// supervisor (or test) that SIGTERMs right after the first healthy
	// /healthz or the readyHook must hit the graceful path that drains
	// and writes the snapshot, never the default handler.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("-addr: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	baseURL := "http://" + ln.Addr().String()

	mode := "adaptive"
	if *interval > 0 {
		mode = fmt.Sprintf("every %v", *interval)
	}
	boot := "fresh"
	if resumed {
		boot = fmt.Sprintf("resumed at round %d", rtNextRound(rt))
	}
	fmt.Fprintf(stdout, "lbserve: %s (n=%d) proto=%s workers=%d dispatch=%s\n",
		g.Name(), g.N(), kind, nWorkers, *dispatch)
	fmt.Fprintf(stdout, "lbserve: serving on %s (%s rounds, %s)\n", baseURL, mode, boot)

	if readyHook != nil {
		readyHook(baseURL)
	}
	runErr := rt.Run(ctx)
	stop()
	srv.Close()
	sc.Obs.Close()
	if runErr != nil {
		return runErr
	}

	res, err := rt.Finish()
	if err != nil {
		return err
	}
	st := rt.Stats()
	fmt.Fprintf(stdout, "\nlbserve: stopped at round %d (accepted %d, rejected %d)\n",
		res.Rounds, st.Accepted, st.Rejected)
	fmt.Fprintf(stdout, "arrived:    %d tasks (weight %.0f)\n", res.Arrived, res.ArrivedWeight)
	fmt.Fprintf(stdout, "departed:   %d tasks (weight %.0f)\n", res.Departed, res.DepartedWeight)
	fmt.Fprintf(stdout, "in flight:  %d tasks (weight %.0f)\n", res.FinalInFlight, res.FinalWeight)
	fmt.Fprintf(stdout, "migrations: %d (weight %.0f)\n", res.Migrations, res.MovedWeight)
	if *snapPath != "" {
		fmt.Fprintf(stdout, "snapshot:   %s (resume by restarting with the same flags)\n", *snapPath)
	}
	return nil
}

// reopenRoundLog opens the round log at path, which held recs, for a
// run that resumes at round next. A log with fewer than next records,
// or a missing one when next > 0, is refused before any file is
// opened. A log that keeps every record and is empty or ends in a
// newline is synced, with its directory, and appended to in place, so
// a clean restart costs no rewrite. Otherwise the records before next
// replace it atomically first, so a crash mid-rewrite leaves the old
// log whole, and a last line that lost its newline does not merge with
// the next record.
func reopenRoundLog(path string, recs []lb.RoundRecord, next int) (*os.File, error) {
	if len(recs) < next {
		return nil, fmt.Errorf("round log %s holds %d records, but the snapshot resumes at round %d", path, len(recs), next)
	}
	if next == len(recs) {
		if f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0); err == nil {
			if endsInNewline(f) {
				if err := f.Sync(); err != nil {
					f.Close()
					return nil, err
				}
				syncDir(path)
				return f, nil
			}
			f.Close()
		}
	} else {
		recs = recs[:next]
	}
	if err := rewriteRoundLog(path, recs); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
}

// endsInNewline reports whether f is empty or its last byte is '\n'.
func endsInNewline(f *os.File) bool {
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	if fi.Size() == 0 {
		return true
	}
	var last [1]byte
	_, err = f.ReadAt(last[:], fi.Size()-1)
	return err == nil && last[0] == '\n'
}

// rewriteRoundLog replaces the round log at path with recs: written
// through a buffer to a temp file in the same directory, synced, then
// renamed over the log, whose permissions it keeps. On any error the
// old log is left as it was.
func rewriteRoundLog(path string, recs []lb.RoundRecord) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".roundlog-*.tmp")
	if err != nil {
		return fmt.Errorf("rewriting round log: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
			err = fmt.Errorf("rewriting round log: %w", err)
		}
	}()
	if fi, err := os.Stat(path); err == nil {
		if err := f.Chmod(fi.Mode().Perm()); err != nil {
			return err
		}
	}
	w := bufio.NewWriter(f)
	if err := lb.WriteRoundLog(w, recs); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	syncDir(path)
	return nil
}

// syncDir syncs the directory that holds path, so that the file's
// entry there outlives a power loss. It is best effort, as in
// snapshot.WriteFileAtomic.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
}

// rtNextRound reads the runtime's next round via its stats snapshot.
func rtNextRound(rt *lb.LiveRuntime) int { return rt.Stats().NextRound }
