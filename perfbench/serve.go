package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	lb "repro"
	"repro/internal/rng"
)

// The HTTP front door is measured per layer in serve-live's traced
// pass: an in-process LiveRuntime behind LiveRoutes, fed an open loop
// of POST /ingest requests at frontRate from one process over nproc
// keep-alive connections, with one GET /healthz per healthzEvery
// ingests.
//
// A serve-http workload that drove a child lbserve the same way, with
// SIGTERM restarts, was dropped from the benchmark: on a shared 2-vCPU
// host its latencies moved up to 2× with the host's load from one run
// to the next (README.md gives the figures).
const (
	frontRate    = 200.0           // requests per second
	reqTimeout   = 5 * time.Second // a request that takes longer fails
	healthzEvery = 10
)

type request struct {
	weights []float64
	body    []byte
}

// genRequests draws n batches of batch Pareto(2, cap 20) weights, each
// with its JSON body encoded ahead of time.
func genRequests(seed uint64, batch, n int) ([]request, error) {
	r := rng.NewSeeded(seed)
	reqs := make([]request, n)
	for i := range reqs {
		w := make([]float64, batch)
		for j := range w {
			w[j] = math.Min(r.Pareto(1, paretoAlpha), paretoCap)
		}
		body, err := json.Marshal(w)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{weights: w, body: body}
	}
	return reqs, nil
}

// frontDoor is an HTTP client of the in-process front door.
type frontDoor struct {
	client *http.Client
	conns  int
}

// loopResult is what one open-loop burst measured.
type loopResult struct {
	lateness []float64 // ms from due time to send, per request
	rtt      []float64 // ms from send to completion, successes only
	healthz  []float64 // ms per GET /healthz
	acked    int64     // tasks the server acknowledged
	failed   int       // requests that failed or were refused
}

// openLoop sends reqs on a fixed schedule at frontRate over f.conns
// connections, whether or not earlier requests have completed.
func (f *frontDoor) openLoop(base string, reqs []request) loopResult {
	n := len(reqs)
	res := loopResult{lateness: make([]float64, n)}
	okd := make([]bool, n)
	acked := make([]int64, n)
	rtt := make([]float64, n)
	healthz := make([][]float64, f.conns)
	sched := newSchedule(time.Now(), frontRate)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < f.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				due := sched.due(i)
				sent := time.Now()
				acc, err := f.ingest(base, reqs[i])
				done := time.Now()
				res.lateness[i] = ms(late(due, sent))
				if err != nil || acc != len(reqs[i].weights) {
					continue
				}
				okd[i], acked[i] = true, int64(acc)
				rtt[i] = ms(done.Sub(sent))
				if i%healthzEvery == 0 {
					h0 := time.Now()
					if err := f.healthz(base); err == nil {
						healthz[w] = append(healthz[w], ms(time.Since(h0)))
					}
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		sleepUntil(sched.due(i))
		work <- i
	}
	close(work)
	wg.Wait()
	for i := range reqs {
		if !okd[i] {
			res.failed++
			continue
		}
		res.acked += acked[i]
		res.rtt = append(res.rtt, rtt[i])
	}
	for _, h := range healthz {
		res.healthz = append(res.healthz, h...)
	}
	return res
}

// sleepUntil blocks the calling thread in nanosleep until t. Go's own
// timers wake up to a millisecond late when the process is idle, which
// would make the generator, not the server, dominate latency.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

func (f *frontDoor) ingest(base string, r request) (int, error) {
	resp, err := f.client.Post(base+"/ingest", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, err
	}
	return ack.Accepted, nil
}

func (f *frontDoor) healthz(base string) error {
	resp, err := f.client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return nil
}

// inProcess feeds a request stream, open loop, to an in-process
// LiveRuntime of sc behind LiveRoutes, paced by the runtime's own
// adaptive loop, for the front door's round trips. Every request must
// succeed and every acknowledged task must arrive.
func (f *frontDoor) inProcess(sc lb.DynamicScenario, reqs []request, m map[string]float64) error {
	rt, err := sc.LiveRuntime(lb.LiveOptions{})
	if err != nil {
		return err
	}
	defer rt.Close()
	mux := http.NewServeMux()
	lb.LiveRoutes(mux, rt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- rt.Run(ctx) }()

	res := f.openLoop("http://"+ln.Addr().String(), reqs)
	cancel()
	err = <-runErr
	srv.Close()
	sc.Obs.Close()
	if err != nil {
		return err
	}
	if res.failed > 0 {
		return checkf("in-process front door: %d of %d requests failed", res.failed, len(reqs))
	}
	out, err := rt.Finish()
	if err != nil {
		return checkf("in-process runtime: %v", err)
	}
	if out.Arrived != res.acked {
		return checkf("in-process runtime: %d tasks arrived, %d acknowledged", out.Arrived, res.acked)
	}
	m["serve.ingest_rtt_ms"] = median(res.rtt)
	m["serve.healthz_rtt_ms"] = median(res.healthz)
	p90, err := percentile(res.lateness, 0.9)
	if err != nil {
		return fmt.Errorf("generator lateness: %w", err)
	}
	m["gen.late_p90_ms"] = p90
	m["gen.late_max_ms"] = sortedCopy(res.lateness)[len(res.lateness)-1]
	m["serve.tasks_per_round"] = float64(out.Arrived) / float64(out.Rounds)
	return nil
}
