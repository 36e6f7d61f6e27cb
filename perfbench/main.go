// Command perfbench is the repository's benchmark. It drives the
// threshold load-balancing library through its public functions on the
// four workloads of BENCHMARK.json:
//
//	paper-static  the paper's Section 7 experiments through Scenario.Run
//	sim-steady    Engine.Step of the open-system engine, every optional layer off
//	sim-layers    the same rounds with faults, rack churn, tracing and
//	              checkpoints on, still one worker
//	serve-live    the live serving runtime with two workers: Ingest and
//	              StepRound with the round log on disk, then resume-on-boot;
//	              the par layer is measured here
//
// Every input comes from --seed; only the program's own calls are
// timed; every output is checked. The last line of standard output is
// one JSON object: the end-to-end metrics with --trace 0, and with
// --trace 1 the per-layer metrics of a separate traced run. run.sh
// builds this package, then runs it:
//
//	bash perfbench/run.sh --workload sim-steady --seed 1 --seconds 20 --trace 0
//
// README.md describes the workloads, the metrics and how they interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd and perLayer name every metric the benchmark prints, with
// its unit; BENCHMARK.json lists the same names.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"op_p50_ms":     "ms",
	"op_p90_ms":     "ms",
	"cpu_ms_per_op": "ms",
	"peak_rss_mb":   "MB",
	"restart_s":     "s",
}

var perLayer = map[string]string{
	"core.user_round_us":              "us",
	"core.resource_round_us":          "us",
	"core.rounds_user":                "count",
	"core.rounds_resource":            "count",
	"core.moves_per_task":             "count",
	"walk.step_ns":                    "ns",
	"graph.build_ms":                  "ms",
	"dynamic.step_us":                 "us",
	"dynamic.arrivals_us":             "us",
	"dynamic.service_us":              "us",
	"dynamic.tune_us":                 "us",
	"dynamic.propose_us":              "us",
	"dynamic.deliver_us":              "us",
	"dynamic.evacuate_us":             "us",
	"dynamic.other_us":                "us",
	"dynamic.arrivals_per_round":      "count",
	"dynamic.departures_per_round":    "count",
	"dynamic.migrations_per_round":    "count",
	"dynamic.resume_ms":               "ms",
	"dynamic.validate_ms":             "ms",
	"par.run_us":                      "us",
	"par.wait_us":                     "us",
	"par.imbalance":                   "ratio",
	"faults.lost_per_kround":          "count",
	"faults.timeouts_per_kround":      "count",
	"faults.retry_frac":               "ratio",
	"faults.dedup_frac":               "ratio",
	"recovery.evac_tasks_per_failure": "count",
	"recovery.drain_rounds":           "count",
	"trace.records_per_round":         "count",
	"obs.publish_ns":                  "ns",
	"obs.dropped_frac":                "ratio",
	"snapshot.checkpoint_ms":          "ms",
	"snapshot.bytes":                  "bytes",
	"snapshot.decode_ms":              "ms",
	"serve.ingest_us":                 "us",
	"serve.step_round_ms":             "ms",
	"serve.roundlog_append_us":        "us",
	"serve.roundlog_read_ms":          "ms",
	"serve.tasks_per_round":           "count",
	"serve.ingest_rtt_ms":             "ms",
	"serve.healthz_rtt_ms":            "ms",
	"gen.late_p90_ms":                 "ms",
	"gen.late_max_ms":                 "ms",
	"trace_overhead_pct":              "%",
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	budget  time.Duration // how long the measured phase runs
	workdir string        // scratch space inside the checkout
}

// outcome is what one pass of a workload measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	// opsPerSec is the pass's throughput, for trace_overhead_pct.
	opsPerSec float64
	// digest fingerprints the program's outputs; the traced and
	// untraced passes of one seed must agree on it.
	digest string
}

// workload runs one pass. With a nil tracer it measures the end-to-end
// metrics; with a tracer it records spans and fills the per-layer
// metrics it can measure.
type workload func(cfg config, tr *tracer) (*outcome, error)

var workloads = map[string]workload{
	"paper-static": runPaperStatic,
	"sim-steady":   runSimSteady,
	"sim-layers":   runSimLayers,
	"serve-live":   runServeLive,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// errCheck marks an output check that failed: the run prints a result
// with correct=false instead of aborting without one.
var errCheck = errors.New("output check failed")

func checkf(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, a...))
}

func main() { os.Exit(run()) }

// run returns the exit code: 0 for a correct run, 1 when an output
// check failed (the result line is still printed) or the run could not
// finish (no result line), 2 for bad arguments.
func run() int {
	var (
		name    = flag.String("workload", "", "paper-static | sim-steady | sim-layers | serve-live")
		seed    = flag.Uint64("seed", 1, "workload seed: every input is generated from it")
		seconds = flag.Int("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		workdir = flag.String("workdir", "", "scratch directory inside the checkout")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *workdir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (paper-static|sim-steady|sim-layers|serve-live), --seconds >= 1, --trace 0|1 and --workdir")
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, workdir: dir}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d; %s\n", *name, *seed, *seconds, *trace, hostFacts())

	var line resultLine
	if *trace == 0 {
		line, err = untraced(w, cfg)
	} else {
		line, err = traced(w, cfg, *name, filepath.Dir(*workdir))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if !errors.Is(err, errCheck) {
			return 1
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}

func untraced(w workload, cfg config) (resultLine, error) {
	o, err := w(cfg, nil)
	if o == nil {
		return resultLine{}, err
	}
	line := resultLine{Correct: err == nil, Attempted: o.attempted, Failed: o.failed}
	line.Metrics, err = pick(o.metrics, endToEnd, err)
	line.Correct = line.Correct && err == nil
	return line, err
}

// traced runs an untraced pass and then a traced pass: the traced pass
// supplies the per-layer metrics, and the pair gives the tracing
// overhead and the traced-vs-untraced digest check.
func traced(w workload, cfg config, name, outDir string) (resultLine, error) {
	base, err := w(cfg, nil)
	if err != nil {
		if base == nil {
			return resultLine{}, err
		}
		return resultLine{Attempted: base.attempted, Failed: base.failed}, err
	}
	tr := newTracer()
	o, err := w(cfg, tr)
	if o == nil {
		return resultLine{}, err
	}
	if err == nil && o.digest != base.digest {
		err = checkf("traced digest %s differs from untraced %s", o.digest, base.digest)
	}
	o.metrics["trace_overhead_pct"] = 100 * (base.opsPerSec - o.opsPerSec) / base.opsPerSec
	if werr := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, cfg.seed))); werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
	}
	line := resultLine{Correct: err == nil, Attempted: o.attempted, Failed: o.failed}
	// A layer the workload never calls reads 0.
	for k := range perLayer {
		if _, ok := o.metrics[k]; !ok {
			o.metrics[k] = 0
		}
	}
	line.Metrics, err = pick(o.metrics, perLayer, err)
	line.Correct = line.Correct && err == nil
	return line, err
}

// pick selects the named metrics, failing if one is missing or not a
// finite number.
func pick(vals map[string]float64, units map[string]string, prev error) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(units))
	var missing []string
	for k, u := range units {
		v, ok := vals[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, k)
			continue
		}
		out[k] = metricOut{Value: v, Unit: u}
	}
	if len(missing) > 0 && prev == nil {
		sort.Strings(missing)
		prev = checkf("metrics missing or not finite: %s", strings.Join(missing, ", "))
	}
	return out, prev
}

// hostFacts names what the run's steadiness depends on.
func hostFacts() string {
	cache := func(idx int) string {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			return "?"
		}
		return strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d L2=%s L3=%s %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cache(2), cache(3), runtime.Version())
}

// mix derives an independent sub-seed from the workload seed.
func mix(seed uint64, parts ...uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
