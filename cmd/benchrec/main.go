// Command benchrec records the perf trajectory of the hot paths: it
// runs the micro-benchmarks — dynamic and static rounds, the delivery exchange,
// mass-failure churn, graph building, the self-tuner's diffusion step, the
// round log's read and append — with
// -benchmem, parses the results into a JSON report (committed as
// BENCH_dynamic.json), and compares
// them against a committed baseline (BENCH_baseline.json: the
// sequential PR-1 engine's numbers, plus first-recording gate entries
// for benchmarks born later).
//
// Two kinds of gate:
//
//   - allocations are hardware-independent, so any allocs/op regression
//     against the baseline fails the run — this is what CI enforces;
//   - ns/op ratios only mean something on one machine, so -min-speedup
//     is off by default and is used locally to certify speedups (e.g.
//     -min-speedup 3 for the ≥3× acceptance figure).
//
// Usage:
//
//	go run ./cmd/benchrec                         # record + compare
//	go run ./cmd/benchrec -benchtime 200ms        # quick CI pass
//	go run ./cmd/benchrec -min-speedup 3          # same-machine gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// FirstRecording marks a baseline entry that IS the benchmark's
	// first measurement (the benchmark was born after the baseline
	// snapshot): the allocs gate applies, but -min-speedup does not —
	// a benchmark cannot be required to beat itself.
	FirstRecording bool `json:"first_recording,omitempty"`
}

// Report is the JSON document benchrec reads and writes.
type Report struct {
	Note       string      `json:"note,omitempty"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?\s+(\d+) B/op\s+(\d+) allocs/op`)

func main() {
	var (
		bench      = flag.String("bench", "BenchmarkDynamicRound|BenchmarkDeliver|BenchmarkMassChurn|BenchmarkRackLossRecover|BenchmarkCheckpoint|BenchmarkResume|BenchmarkLiveIngest|BenchmarkGraphBuild|BenchmarkDiffuse$|BenchmarkResourceControlledRound|BenchmarkUserControlledRound|BenchmarkFullUserRun|BenchmarkReadRoundLog|BenchmarkAppendRecord", "benchmark regex passed to go test -bench")
		benchtime  = flag.String("benchtime", "1s", "go test -benchtime value")
		pkg        = flag.String("pkg", ".", "package to benchmark")
		out        = flag.String("out", "BENCH_dynamic.json", "JSON report to write (empty = don't write)")
		baseline   = flag.String("baseline", "BENCH_baseline.json", "committed baseline to compare against (empty = skip)")
		minSpeedup = flag.Float64("min-speedup", 0, "fail unless every common benchmark is at least this much faster than the baseline (0 = report only; same-machine runs only)")
		note       = flag.String("note", "", "free-form note stored in the report")
	)
	flag.Parse()

	rep, err := run(*bench, *benchtime, *pkg)
	if err != nil {
		fail(err)
	}
	rep.Note = *note

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
	}

	if *baseline == "" {
		return
	}
	base, err := load(*baseline)
	if err != nil {
		fail(fmt.Errorf("baseline: %w", err))
	}
	if err := compare(base, rep, *minSpeedup); err != nil {
		fail(err)
	}
}

// run executes the benchmarks and parses the output.
func run(bench, benchtime, pkg string) (*Report, error) {
	args := []string{"test", "-run", "^$", "-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", "1", pkg}
	fmt.Printf("go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	output := string(outBytes)
	fmt.Print(output)
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}

	rep := &Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, line := range strings.Split(output, "\n") {
		line = strings.TrimSpace(line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			rep.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		bytes, _ := strconv.ParseInt(m[4], 10, 64)
		allocs, _ := strconv.ParseInt(m[5], 10, 64)
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{
			Name: m[1], Iterations: iters, NsPerOp: ns,
			BytesPerOp: bytes, AllocsPerOp: allocs,
		})
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed (regex %q)", bench)
	}
	return rep, nil
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compare prints the trajectory table and applies the gates.
func compare(base, cur *Report, minSpeedup float64) error {
	byName := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		byName[b.Name] = b
	}
	var failures []string
	seen := map[string]bool{}
	fmt.Printf("\n%-34s %14s %14s %9s %14s\n", "benchmark", "baseline ns/op", "current ns/op", "speedup", "allocs (b→c)")
	for _, c := range cur.Benchmarks {
		seen[c.Name] = true
		b, ok := byName[c.Name]
		if !ok {
			fmt.Printf("%-34s %14s %14.0f %9s %14d\n", c.Name, "(new)", c.NsPerOp, "-", c.AllocsPerOp)
			continue
		}
		speedup := b.NsPerOp / c.NsPerOp
		fmt.Printf("%-34s %14.0f %14.0f %8.2fx %7d→%d\n",
			c.Name, b.NsPerOp, c.NsPerOp, speedup, b.AllocsPerOp, c.AllocsPerOp)
		if c.AllocsPerOp > b.AllocsPerOp {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op regressed %d → %d", c.Name, b.AllocsPerOp, c.AllocsPerOp))
		}
		if minSpeedup > 0 && speedup < minSpeedup && !b.FirstRecording {
			failures = append(failures, fmt.Sprintf(
				"%s: speedup %.2fx below required %.2fx", c.Name, speedup, minSpeedup))
		}
	}
	// A baseline benchmark the current run never produced means its
	// gate silently vanished (renamed benchmark, narrowed -bench
	// regex) — fail loudly instead.
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			failures = append(failures, fmt.Sprintf(
				"%s: present in baseline but missing from this run — its perf gate no longer applies", b.Name))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("\nperf gates passed")
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchrec:", err)
	os.Exit(1)
}
