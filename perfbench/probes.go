package main

import (
	"time"

	lb "repro"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/walk"
)

// The fleet shapes the workloads share.
const (
	kN         = 1000 // K_1000: Figure 1 and lbserve's default fleet
	torusSide  = 32   // the Theorem 3 torus
	expanderN  = 1000 // the open-system fleet
	expanderD  = 16
	probeReps  = 5
	walkSteps  = 1 << 20
	parRuns    = 20000
	publishes  = 1 << 18
	probeQueue = 1024
)

// probeLayers times the public calls of the layers every workload
// shares, each in isolation: graph builds, one walk step, one pool
// barrier and one broker publish. They run in every traced pass, so
// these per-layer metrics never read 0. The probes run on a goroutine
// of their own: the caller may be locked to its thread, which would
// turn every pool hand-off into a thread switch.
func probeLayers(seed uint64, tr *tracer, m map[string]float64) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		probe(seed, tr, m)
	}()
	<-done
}

func probe(seed uint64, tr *tracer, m map[string]float64) {
	var builds []float64
	var torus, exp *lb.Graph
	for i := 0; i < probeReps; i++ {
		id := tr.begin("graph.build", -1, int64(i))
		t0 := time.Now()
		lb.CompleteGraph(kN)
		torus = lb.TorusGraph(torusSide, torusSide)
		exp = lb.ExpanderGraph(expanderN, expanderD, mix(seed, 3))
		builds = append(builds, ms(time.Since(t0)))
		tr.end(id)
	}
	m["graph.build_ms"] = median(builds)

	var steps []float64
	for i, g := range []*lb.Graph{torus, exp} {
		k := walk.NewLazy(walk.NewMaxDegree(g))
		r := rng.NewSeeded(mix(seed, 4, uint64(i)))
		v := 0
		id := tr.begin("walk.step", -1, int64(i))
		t0 := time.Now()
		for j := 0; j < walkSteps; j++ {
			v = k.Step(v, r)
		}
		steps = append(steps, float64(time.Since(t0))/walkSteps)
		tr.end(id)
	}
	m["walk.step_ns"] = sum(steps) / float64(len(steps))

	pool := par.NewPool(2)
	noop := func(int) {}
	id := tr.begin("par.run", -1, 0)
	t0 := time.Now()
	for i := 0; i < parRuns; i++ {
		pool.Run(2, noop)
	}
	m["par.run_us"] = float64(time.Since(t0)) / 1e3 / parRuns
	tr.end(id)
	pool.Close()

	b := obs.NewBroker()
	sub := b.Subscribe(obs.SubOptions{Capacity: probeQueue})
	ev := obs.Event{Kind: obs.KindWindow}
	id = tr.begin("obs.publish", -1, 0)
	t0 = time.Now()
	for i := 0; i < publishes; i++ {
		ev.Round = i
		b.Publish(&ev)
	}
	m["obs.publish_ns"] = float64(time.Since(t0)) / publishes
	tr.end(id)
	sub.Close()
	b.Close()
}
