package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	lb "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/snapshot"
)

// serve-live: the live serving runtime in process, on the sim fleet
// with two workers (lbserve's default, GOMAXPROCS, on the reference
// host), a broker attached as lbserve has, and the round log going to
// a file. One op is one adaptive round as lbserve paces it:
// Runtime.Ingest of 100-task batches until at least 256 tasks wait,
// then StepRound, which writes the round's record to the log before
// stepping the engine. A run repeats a fixed-length runtime life, so
// the log and the in-memory records stay the same size: set-up (graph,
// runtime, liveWarm rounds), liveTimed timed rounds, then liveRestarts
// restarts as lbserve reboots: Checkpoint, ReadRoundLog of the log
// file, ResumeLiveRuntime, one more round. Every life of a seed must
// end in the same Result, every acknowledged task must arrive, and
// replaying the first life's log through a fresh engine must reproduce
// its Result (the lockstep twin).
//
// Set-ups and rounds run on two workers and are timed on the wall
// clock; restarts run on this goroutine and are timed on the CPU clock.
// Lives are short because each restart parses the whole log: longer
// ones left a run with four lives, whose medians spread up to 0.3
// between seeds.
//
// This workload stands in for driving lbserve over HTTP, whose
// latencies were too noisy on a shared host (serve.go); the front door
// is measured per layer in the traced pass. lbserve's own fleet,
// K_1000, was no steadier here: its threshold refresh diffuses over a
// million edges, which spill out of L2 into the shared L3.
const (
	liveBatch    = 100
	liveTarget   = 256  // lbserve's default adaptive backlog target
	liveWarm     = 512  // multiples of the 64-round telemetry cadence, so the
	liveTimed    = 1024 // phase reports of the traced pass cover the timed rounds
	liveRestarts = 3
	liveRounds   = liveWarm + liveTimed + liveRestarts
	liveInProc   = 400 // requests fed to the in-process front door in the traced pass
)

func runServeLive(cfg config, tr *tracer) (*outcome, error) {
	workers := runtime.NumCPU()
	spin, err := keepAwake(workers)
	if err != nil {
		return nil, err
	}
	defer spin.stop()
	timer := cpuTimer{spin: spin}

	reqs, err := genRequests(mix(cfg.seed, 31), liveBatch, liveRounds*(liveTarget/liveBatch+1))
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	o := &outcome{metrics: m}
	var (
		setups, lat, rates, rs    []float64
		peaks                     []float64
		reads, resumes, ckpts     []float64
		ingests, steps            []float64
		cpus                      []float64
		snap                      bytes.Buffer
		op                        int64
		lastLog                   string
		ckptBytes, tasks, stepped int64
		phases                    []obs.Event
	)
	lat = make([]float64, 0, 128*liveTimed)
	deadline := time.Now().Add(cfg.budget)
	for n := 0; n < simMinLives || time.Now().Before(deadline); n++ {
		runtime.GC()
		t0 := time.Now()
		l, err := newLiveLife(cfg, workers, n, reqs, tr)
		if err != nil {
			return nil, err
		}
		for r := 0; r < liveWarm; r++ {
			if _, err := l.round(nil, -1); err != nil {
				l.close()
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()

		if err := resetPeakRSS(); err != nil {
			l.close()
			return nil, err
		}
		cpu0 := timer.now()
		var busy time.Duration
		for r := 0; r < liveTimed; r++ {
			d, err := l.round(tr, op)
			o.attempted++
			op++
			if err != nil {
				o.failed++
				l.close()
				return o, err
			}
			busy += d
			lat = append(lat, ms(d))
		}
		cpus = append(cpus, ms(timer.now()-cpu0)/liveTimed)
		rates = append(rates, liveTimed/busy.Seconds())
		rss, err := selfRSS()
		if err != nil {
			l.close()
			return nil, err
		}
		peaks = append(peaks, rss)

		for k := 0; k < liveRestarts; k++ {
			// A restart runs on this goroutine, locked to its thread for
			// the blocking check, from a collected heap.
			snap.Reset()
			runtime.GC()
			runtime.LockOSThread()
			timer.start()
			err := l.rt.Checkpoint(&snap)
			c1 := timer.now()
			var recs []lb.RoundRecord
			if err == nil {
				recs, err = readLog(l.path)
			}
			c2 := timer.now()
			var next *lb.LiveRuntime
			if err == nil {
				next, err = l.sc.ResumeLiveRuntime(bytes.NewReader(snap.Bytes()), recs, lb.LiveOptions{LogWriter: l.log})
			}
			d := timer.stop()
			runtime.UnlockOSThread()
			if err != nil {
				l.close()
				return nil, err
			}
			l.rt.Close()
			l.rt = next
			rs = append(rs, d.Seconds())
			ckpts, reads, resumes = append(ckpts, ms(c1-timer.cpu0)), append(reads, ms(c2-c1)), append(resumes, ms(timer.cpu0+d-c2))
			ckptBytes = int64(snap.Len())
			if _, err := l.round(nil, -1); err != nil {
				l.close()
				return nil, err
			}
		}
		res, err := l.rt.Finish()
		l.close()
		if err != nil {
			return o, checkf("life %d: %v", n, err)
		}
		if res.Arrived != l.acked {
			return o, checkf("life %d: %d tasks arrived, %d acknowledged", n, res.Arrived, l.acked)
		}
		d := resultDigest(res)
		if o.digest == "" {
			o.digest = d
			if err := checkTwin(l, d); err != nil {
				return o, err
			}
		} else if d != o.digest {
			return o, checkf("life %d of seed %d ended in Result %s, the first life in %s", n, cfg.seed, d, o.digest)
		}
		ingests, steps = l.ingestUS, l.stepMS
		tasks, stepped = l.acked, int64(res.Rounds)
		if l.phases != nil {
			phases = l.phases.Poll(make([]obs.Event, 0, 1<<9))
		}
		if lastLog != "" {
			os.Remove(lastLog)
		}
		lastLog = l.path
	}
	if err := timer.check(); err != nil {
		return o, err
	}
	m["setup_s"] = median(setups)
	m["ops_per_s"] = median(rates)
	o.opsPerSec = m["ops_per_s"]
	m["cpu_ms_per_op"] = median(cpus)
	m["restart_s"] = median(rs)
	m["peak_rss_mb"] = median(peaks)
	if err := latencyMetrics(lat, m); err != nil {
		return nil, err
	}
	if tr == nil {
		return o, nil
	}

	m["serve.ingest_us"] = median(ingests)
	m["serve.step_round_ms"] = median(steps)
	m["serve.roundlog_read_ms"] = median(reads)
	m["serve.tasks_per_round"] = float64(tasks) / float64(stepped)
	m["snapshot.checkpoint_ms"] = median(ckpts)
	m["snapshot.bytes"] = float64(ckptBytes)
	m["dynamic.resume_ms"] = median(resumes)
	profile(phases, liveWarm, liveTimed).parMetrics(liveTimed, m)
	if err := appendAndDecode(cfg, lastLog, snap.Bytes(), tr, m); err != nil {
		return o, err
	}
	f := &frontDoor{conns: workers, client: &http.Client{Timeout: reqTimeout}}
	sc := liveFleet(cfg.seed, 1<<20, workers)
	if err := f.inProcess(sc, reqs[:liveInProc], m); err != nil {
		return o, err
	}
	probeLayers(cfg.seed, tr, m)
	return o, nil
}

// liveLife is one runtime life: its scenario, runtime, log file and
// the input batches it has consumed.
type liveLife struct {
	sc       lb.DynamicScenario
	rt       *lb.LiveRuntime
	log      *os.File
	path     string
	reqs     []request
	next     int
	acked    int64
	ingestUS []float64 // traced rounds only
	stepMS   []float64
	phases   *obs.Subscription // traced pass: the engine's phase profile
}

func newLiveLife(cfg config, workers, n int, reqs []request, tr *tracer) (*liveLife, error) {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("live-%d.jsonl", n))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	l := &liveLife{sc: liveFleet(cfg.seed, liveRounds, workers), log: f, path: path, reqs: reqs}
	if tr != nil {
		// A life reports about 75 phase events; the ring holds them all
		// until the life ends.
		l.phases = l.sc.Subscribe(lb.ObsSubOptions{Capacity: 1 << 9, Kinds: lb.ObsMask(lb.KindPhase)})
	}
	if l.rt, err = l.sc.LiveRuntime(lb.LiveOptions{LogWriter: f}); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// liveFleet is the sim fleet with a broker attached, as lbserve runs.
func liveFleet(seed uint64, rounds, workers int) lb.DynamicScenario {
	sc := fleet(seed, rounds, workers)
	sc.Obs = lb.NewObsBroker()
	return sc
}

func (l *liveLife) close() {
	l.rt.Close()
	l.sc.Obs.Close()
	l.log.Close()
}

// round ingests batches until the adaptive target is reached and steps
// the round, returning the wall time of the program's calls.
func (l *liveLife) round(tr *tracer, op int64) (time.Duration, error) {
	var d time.Duration
	parent := tr.begin("serve.round", -1, op)
	defer tr.end(parent)
	for pending := 0; pending < liveTarget; l.next++ {
		w := l.reqs[l.next].weights
		id := tr.begin("serve.ingest", parent, op)
		c0 := wallClock()
		n, err := l.rt.Ingest(w)
		c1 := wallClock()
		tr.end(id)
		d += c1 - c0
		if err != nil {
			return d, err
		}
		if n != len(w) {
			return d, checkf("ingest admitted %d of %d tasks", n, len(w))
		}
		pending += n
		l.acked += int64(n)
		if tr != nil {
			l.ingestUS = append(l.ingestUS, float64(c1-c0)/1e3)
		}
	}
	id := tr.begin("serve.step_round", parent, op)
	c0 := wallClock()
	err := l.rt.StepRound()
	c1 := wallClock()
	tr.end(id)
	d += c1 - c0
	if tr != nil {
		l.stepMS = append(l.stepMS, ms(c1-c0))
	}
	return d, err
}

func readLog(path string) ([]lb.RoundRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lb.ReadRoundLog(f)
}

// checkTwin replays a life's round log through a fresh engine and
// checks it ends in the live Result.
func checkTwin(l *liveLife, digest string) error {
	recs, err := readLog(l.path)
	if err != nil {
		return err
	}
	sc := l.sc
	sc.Obs = nil
	res, err := sc.ReplayRoundLog(recs)
	if err != nil {
		return checkf("twin replay: %v", err)
	}
	if d := resultDigest(res); d != digest {
		return checkf("twin replay ended in Result %s, the live run in %s", d, digest)
	}
	return nil
}

// appendAndDecode times AppendRecord of a life's records into a scratch
// file and the CRC check of its last checkpoint.
func appendAndDecode(cfg config, logPath string, snap []byte, tr *tracer, m map[string]float64) error {
	recs, err := readLog(logPath)
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.workdir, "append.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	var app []float64
	for i := range recs {
		id := tr.begin("serve.roundlog_append", -1, int64(i))
		c0 := wallClock()
		err := serve.AppendRecord(f, &recs[i])
		app = append(app, float64(wallClock()-c0)/1e3)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	m["serve.roundlog_append_us"] = median(app)
	var dec []float64
	for i := 0; i < probeReps; i++ {
		c0 := wallClock()
		if _, err := snapshot.NewDecoder(snap); err != nil {
			return checkf("checkpoint does not decode: %v", err)
		}
		dec = append(dec, ms(wallClock()-c0))
	}
	m["snapshot.decode_ms"] = median(dec)
	return nil
}
