// Command lbdyn runs an open-system (dynamic) threshold-balancing
// scenario: continuous task arrivals and departures, optional resource
// churn, and thresholds re-estimated online. It prints one line per
// metrics window plus a final summary.
//
// Usage examples:
//
//	lbdyn -graph complete -n 1000 -rho 0.8 -proto user -rounds 600
//	lbdyn -graph torus -n 1024 -proto resource -lazy -dispatch hotspot -rho 0.9
//	lbdyn -graph expander -n 500 -k 8 -proto resource -churn 0.1 -rounds 1000
//	lbdyn -graph complete -n 200 -arrivals burst -burst-every 50 -burst-size 200
//	lbdyn -graph expander -n 100000 -k 16 -proto resource -workers 8 -rounds 2000
//	lbdyn -graph complete -n 1000 -trace ingress.csv -rounds 5000
//	lbdyn -graph expander -n 1000 -k 8 -proto resource -speedspread 10 -dispatch speed
//	lbdyn -graph complete -n 500 -speeds fleet.csv -dispatch power2 -rho 0.85
//	lbdyn -graph complete -n 1000 -metrics-addr :9090 -events-out run.jsonl
//	lbdyn -graph complete -n 1000 -loss 0.01 -retry 1:8:30 -quarantine 3:50:100
//	lbdyn -graph torus -n 1024 -synthracks 16 -partition 2:100:200 -dup 0.001
//
// -workers shards the round pipeline across a persistent worker pool;
// results are bit-identical for every worker count (0 = GOMAXPROCS).
// -trace replays a recorded arrival log (.csv round,weight records or
// .jsonl {"round":r,"weight":w} lines) instead of a synthetic process.
// -speeds loads a heterogeneous speed profile (.csv resource,speed
// records or .jsonl {"resource":r,"speed":s} lines; unlisted resources
// run at speed 1) and -speedspread S generates a linear 1→S ramp;
// either one makes service, thresholds and load-aware dispatch
// speed-proportional, and the per-window p99 column switches to
// load-per-speed (the quantity the proportional thresholds equalise).
//
// Observability: -metrics-addr serves Prometheus text on /metrics plus
// expvar (/debug/vars) and pprof (/debug/pprof/) on one mux for the
// duration of the run; -events-out streams every engine event as JSONL
// (readable back with the same codec); -sharddebug renders exchange
// lane occupancy, per-shard cost shares and phase-timing profiles to
// STDERR, so the stdout window table and summary stay machine-
// parseable. All three ride the same bounded event broker and leave
// results bit-for-bit identical to an unobserved run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	lb "repro"
	"repro/internal/cli"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lbdyn:", err)
		os.Exit(2)
	}
}

// metricsHook, when non-nil, is called with the metrics base URL after
// the simulation finishes but before the HTTP server shuts down — the
// seam CLI tests scrape through.
var metricsHook func(baseURL string)

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lbdyn", flag.ContinueOnError)
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
		rounds    = fs.Int("rounds", 600, "simulated rounds")
		window    = fs.Int("window", 100, "metrics window length")
		seed      = fs.Uint64("seed", 1, "RNG seed")
		workers   = fs.Int("workers", 0, "round-pipeline shards (0 = GOMAXPROCS, 1 = sequential; results identical for any value)")

		arrivals   = fs.String("arrivals", "poisson", "poisson|burst")
		tracePath  = fs.String("trace", "", "replay a recorded arrival trace (.csv round,weight or .jsonl) instead of -arrivals")
		rho        = fs.Float64("rho", 0.8, "offered utilisation (poisson rate = rho*n*svcrate/E[w])")
		burstEvery = fs.Int("burst-every", 50, "burst period in rounds")
		burstSize  = fs.Int("burst-size", 100, "tasks per burst")
		weights    = fs.String("weights", "pareto", "pareto|unit|exp|range")
		palpha     = fs.Float64("pareto-alpha", 2, "Pareto shape")
		pcap       = fs.Float64("pareto-cap", 20, "Pareto weight cap (0 = uncapped)")
		expMean    = fs.Float64("exp-mean", 2, "exponential weight mean")
		rangeLo    = fs.Float64("range-lo", 1, "uniform range low")
		rangeHi    = fs.Float64("range-hi", 4, "uniform range high")

		service = fs.String("service", "weight", "weight (proportional to weight) | geom")
		svcRate = fs.Float64("svcrate", 1, "weight-units served per resource per round")
		geomP   = fs.Float64("geomp", 0.05, "geometric per-round departure probability")

		dispatch = fs.String("dispatch", "uniform", "uniform|hotspot|power2|speed")
		hotspot  = fs.Int("hotspot", 0, "hotspot ingress resource")

		speedsPath  = fs.String("speeds", "", "heterogeneous speed profile (.csv resource,speed or .jsonl; unlisted resources get speed 1)")
		speedSpread = fs.Float64("speedspread", 0, "generate a linear speed ramp 1..S across the resources (0 = homogeneous)")

		churn      = fs.Float64("churn", 0, "per-round leave/join probability (0 = no churn)")
		minUp      = fs.Int("minup", 0, "floor on up resources (0 = n/2 when churn > 0)")
		oracle     = fs.Bool("oracle", false, "exact-average thresholds instead of self-tuned diffusion estimates")
		check      = fs.Bool("check", false, "validate weight conservation every round (slow)")
		shardDebug = fs.Bool("sharddebug", false, "render per-shard cost, exchange-lane and phase-timing telemetry to stderr at every telemetry window")

		topoPath   = fs.String("topology", "", "failure-domain inventory (.csv resource,rack,zone or .jsonl; enables rack-aware failures and locality re-homing)")
		synthRacks = fs.Int("synthracks", 0, "synthesise a topology with this many contiguous racks (mutually exclusive with -topology)")
		synthZones = fs.Int("synthzones", 1, "zones for the synthesised topology")
		rehome     = fs.String("rehome", "uniform", "evacuation re-home policy: uniform|power2|locality|speed")
		eventsPath = fs.String("events", "", "scripted churn-event schedule (.csv round,every,down,up or .jsonl with down_list/up_list)")
		rackMTBF   = fs.Float64("rackmtbf", 0, "mean rounds between whole-rack failures (compiled failure model; needs a topology)")
		rackMTTR   = fs.Float64("rackmttr", 0, "mean rounds to repair a failed rack")

		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics, expvar and pprof on this address for the duration of the run (e.g. :9090)")
		eventsOut   = fs.String("events-out", "", "stream the engine's event feed (windows, lanes, phases, recovery episodes) as JSONL to this file (- = stdout)")
		traceSample = fs.Float64("trace-sample", 0, "per-task lifecycle trace sampling probability in [0,1] (stateless hash of the task ID — worker-count invariant; 0 = off)")
		traceOut    = fs.String("trace-out", "", "write sampled task-lifecycle records (arrivals, hops with causes, retries, departures) as JSONL to this file (- = stdout; needs -trace-sample)")
		traceSeed   = fs.Uint64("trace-seed", 0, "trace sampling seed, decoupled from -seed so repeated passes can sample different task subsets")

		alertBudget  = fs.Float64("alert-budget", 0, "domain SLO overload budget: alert when a rack/zone window overload fraction exceeds this for -alert-windows consecutive windows (0 = off; needs a topology)")
		alertWindows = fs.Int("alert-windows", 3, "consecutive over-budget windows before a domain alert fires")

		checkpointEvery = fs.Int("checkpoint-every", 0, "write a full engine checkpoint every this many rounds (0 = off)")
		checkpointDir   = fs.String("checkpoint-dir", "", "directory for ckpt-<round>.snap files (atomic writes; default with -checkpoint-every: current directory)")
		resumePath      = fs.String("resume", "", "resume from a checkpoint file instead of starting at round 0 (flags must rebuild the checkpointed scenario)")
		crashAtRound    = fs.Int("crash-at-round", 0, "kill the run after this round and exit nonzero — crash-injection for checkpoint/resume drills (0 = off)")

		loss       = fs.Float64("loss", 0, "per-migration loss probability (lost moves are ledgered and retried with backoff)")
		delayProb  = fs.Float64("delayprob", 0, "per-migration delay probability (delayed moves deliver 1..delaymax rounds late)")
		delayMax   = fs.Int("delaymax", 4, "maximum extra rounds a delayed migration spends in flight")
		dup        = fs.Float64("dup", 0, "per-migration duplication probability (late copies are deduped on arrival)")
		retrySpec  = fs.String("retry", "", "lost-message retry policy BASE:CAP:TIMEOUT in rounds (default 1:8:30)")
		partition  = fs.String("partition", "", "scripted partition windows RACK:START:END, comma-separated (needs -topology or -synthracks)")
		faultPlan  = fs.String("faultplan", "", "load a fault plan (.csv kind,a,b,c or .jsonl directives); mutually exclusive with -loss/-delayprob/-dup/-retry/-partition")
		quarantine = fs.String("quarantine", "", "flapping hold-down FLAPS:WINDOW:COOLOFF — quarantine a resource after FLAPS transitions within a WINDOW-round window for COOLOFF rounds")
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

	// Heterogeneous speed profile: a file, or a generated linear ramp.
	// totalSpeed is the fleet's service capacity in unit-resource
	// equivalents — the n of the rho → rate conversion.
	var speeds []float64
	switch {
	case *speedsPath != "" && *speedSpread > 0:
		return fmt.Errorf("-speeds and -speedspread are mutually exclusive")
	case *speedsPath != "":
		if speeds, err = lb.LoadSpeeds(*speedsPath, g.N()); err != nil {
			return err
		}
	case *speedSpread > 0:
		if *speedSpread < 1 {
			return fmt.Errorf("-speedspread %g must be >= 1", *speedSpread)
		}
		speeds = make([]float64, g.N())
		for r := range speeds {
			frac := 0.0
			if g.N() > 1 {
				frac = float64(r) / float64(g.N()-1)
			}
			speeds[r] = 1 + (*speedSpread-1)*frac
		}
	}
	totalSpeed := float64(g.N())
	if speeds != nil {
		totalSpeed = 0
		for _, s := range speeds {
			totalSpeed += s
		}
	}

	var dist lb.WeightDist
	meanW := 1.0
	switch *weights {
	case "pareto":
		dist = lb.ParetoDist(*palpha, *pcap)
		// E[min(Pareto(1,a), cap)]; without a cap, a <= 1 has no finite
		// mean and the rho -> rate conversion is meaningless.
		switch {
		case *pcap > 0 && *palpha == 1:
			meanW = 1 + math.Log(*pcap)
		case *pcap > 0:
			c1a := math.Pow(*pcap, 1-*palpha)
			meanW = *palpha*(c1a-1)/(1-*palpha) + c1a
		case *palpha > 1:
			meanW = *palpha / (*palpha - 1)
		default:
			return fmt.Errorf("pareto with alpha <= 1 needs -pareto-cap for a finite mean (rho is undefined otherwise)")
		}
	case "unit":
		dist = lb.UnitDist()
	case "exp":
		dist = lb.ExponentialDist(*expMean)
		meanW = *expMean
	case "range":
		dist = lb.UniformRangeDist(*rangeLo, *rangeHi)
		meanW = (*rangeLo + *rangeHi) / 2
	default:
		return fmt.Errorf("unknown weight distribution %q", *weights)
	}

	var arr lb.Arrivals
	switch {
	case *tracePath != "":
		if arr, err = lb.LoadTraceArrivals(*tracePath); err != nil {
			return err
		}
	case *arrivals == "poisson":
		arr = lb.PoissonArrivals(*rho*totalSpeed**svcRate/meanW, dist)
	case *arrivals == "burst":
		arr = lb.BurstArrivals(*burstEvery, *burstSize, dist)
	default:
		return fmt.Errorf("unknown arrival process %q", *arrivals)
	}

	svc, err := cli.Service(*service, *svcRate, *geomP)
	if err != nil {
		return err
	}

	var disp lb.Dispatch
	switch *dispatch {
	case "uniform":
		disp = lb.UniformDispatch()
	case "hotspot":
		disp = lb.HotspotDispatch(*hotspot)
	case "power2":
		disp = lb.PowerOfDDispatch(2)
	case "speed":
		disp = lb.SpeedWeightedDispatch()
	default:
		return fmt.Errorf("unknown dispatch %q", *dispatch)
	}

	kind, err := cli.Protocol(*proto)
	if err != nil {
		return err
	}

	// Failure-domain topology: a fleet inventory file, or a synthetic
	// contiguous-rack layout.
	var topo *lb.Topology
	switch {
	case *topoPath != "" && *synthRacks > 0:
		return fmt.Errorf("-topology and -synthracks are mutually exclusive")
	case *topoPath != "":
		if topo, err = lb.LoadTopology(*topoPath, g.N()); err != nil {
			return err
		}
	case *synthRacks > 0:
		if topo, err = lb.SynthTopology(g.N(), *synthRacks, *synthZones); err != nil {
			return err
		}
	}

	var rehomer lb.Dispatch
	switch *rehome {
	case "uniform":
		rehomer = lb.UniformRehome()
	case "power2":
		rehomer = lb.PowerOfDRehome(2)
	case "locality":
		if topo == nil {
			return fmt.Errorf("-rehome locality needs -topology or -synthracks")
		}
		rehomer = lb.LocalityRehome(topo)
	case "speed":
		rehomer = lb.SpeedWeightedRehome()
	default:
		return fmt.Errorf("unknown re-home policy %q", *rehome)
	}

	var spec lb.ChurnSpec
	if *churn > 0 {
		up := *minUp
		if up <= 0 {
			up = g.N() / 2
		}
		spec = lb.ChurnSpec{LeaveProb: *churn, JoinProb: *churn, MinUp: up}
	} else if *minUp > 0 {
		spec.MinUp = *minUp
	}
	if *eventsPath != "" {
		if spec.Events, err = lb.LoadChurnEvents(*eventsPath, g.N()); err != nil {
			return err
		}
	}
	if *rackMTBF > 0 || *rackMTTR > 0 {
		if len(spec.Events) > 0 {
			return fmt.Errorf("-events and -rackmtbf/-rackmttr are mutually exclusive (the compiled schedule could contradict the scripted one)")
		}
		if topo == nil {
			return fmt.Errorf("-rackmtbf/-rackmttr need -topology or -synthracks")
		}
		model := lb.FailureModel{Topo: topo, RackMTBF: *rackMTBF, RackMTTR: *rackMTTR}
		if spec.Events, err = model.Compile(*rounds, *seed); err != nil {
			return err
		}
	}

	// Unreliable-network plan: a fault-plan file, or assembled from the
	// scalar fault flags. Either way the plan is validated against the
	// fleet before the run starts.
	var plan *lb.FaultPlan
	scalarFaults := *loss > 0 || *delayProb > 0 || *dup > 0 || *retrySpec != "" || *partition != ""
	switch {
	case *faultPlan != "" && scalarFaults:
		return fmt.Errorf("-faultplan and the scalar fault flags (-loss/-delayprob/-dup/-retry/-partition) are mutually exclusive")
	case *faultPlan != "":
		if plan, err = lb.LoadFaultPlan(*faultPlan, g.N()); err != nil {
			return err
		}
	case scalarFaults:
		plan = &lb.FaultPlan{Loss: *loss, DelayProb: *delayProb, DelayMax: *delayMax, DupProb: *dup}
		if *retrySpec != "" {
			if plan.RetryBase, plan.RetryCap, plan.Timeout, err = parseTriple(*retrySpec); err != nil {
				return fmt.Errorf("-retry: %w (want BASE:CAP:TIMEOUT)", err)
			}
		}
		if *partition != "" {
			if topo == nil {
				return fmt.Errorf("-partition needs -topology or -synthracks to name racks")
			}
			// Each entry is DOMAIN:START:END where DOMAIN is a rack index
			// or a rack/zone name from the topology inventory ("rack3",
			// "zone1", or whatever the CSV/JSONL loader recorded).
			for _, ent := range strings.Split(*partition, ",") {
				dom, span, ok := strings.Cut(ent, ":")
				if !ok {
					return fmt.Errorf("-partition %q: want DOMAIN:START:END", ent)
				}
				dom = strings.TrimSpace(dom)
				var start, end int
				if _, err := fmt.Sscanf(span, "%d:%d", &start, &end); err != nil {
					return fmt.Errorf("-partition %q: bad START:END %q", ent, span)
				}
				if rack, err := strconv.Atoi(dom); err == nil {
					if rack < 0 || rack >= topo.Racks() {
						return fmt.Errorf("-partition %q: rack %d out of range [0,%d)", ent, rack, topo.Racks())
					}
					plan.Partitions = append(plan.Partitions, lb.PartitionRack(topo, rack, start, end))
					continue
				}
				members, ok := topo.Resolve(dom)
				if !ok {
					return fmt.Errorf("-partition %q: no rack or zone named %q in the topology", ent, dom)
				}
				plan.Partitions = append(plan.Partitions, lb.FaultPartition{Start: start, End: end, Members: members})
			}
		}
		if err := plan.Validate(g.N()); err != nil {
			return err
		}
	}

	var quar lb.QuarantineSpec
	if *quarantine != "" {
		if quar.Flaps, quar.Window, quar.Cooloff, err = parseTriple(*quarantine); err != nil {
			return fmt.Errorf("-quarantine: %w (want FLAPS:WINDOW:COOLOFF)", err)
		}
		if quar.Flaps <= 0 {
			return fmt.Errorf("-quarantine: FLAPS must be positive, got %d", quar.Flaps)
		}
		// Normalise to the engine's defaults so the header line shows
		// the effective policy.
		if quar.Window == 0 {
			quar.Window = 50
		}
		if quar.Cooloff == 0 {
			quar.Cooloff = 100
		}
	}

	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}

	if *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("-trace-sample %g must lie in [0, 1]", *traceSample)
	}
	if *traceOut != "" && *traceSample == 0 {
		return fmt.Errorf("-trace-out needs -trace-sample > 0 (no tasks are sampled otherwise)")
	}

	sc := lb.DynamicScenario{
		Graph:            g,
		Speeds:           speeds,
		Protocol:         kind,
		Alpha:            *alpha,
		Epsilon:          *eps,
		LazyWalk:         *lazy,
		Seed:             *seed,
		Workers:          nWorkers,
		Rounds:           *rounds,
		Window:           *window,
		Arrivals:         arr,
		Service:          svc,
		Dispatch:         disp,
		Rehome:           rehomer,
		OracleThresholds: *oracle,
		Churn:            spec,
		Faults:           plan,
		Quarantine:       quar,
		CheckInvariants:  *check,
	}
	if topo != nil {
		sc.Domains = lb.ObsDomains(topo)
	}

	if *alertBudget > 0 {
		if topo == nil {
			return fmt.Errorf("-alert-budget needs -topology or -synthracks (alerts are per failure domain)")
		}
		sc.AlertBudget = *alertBudget
		sc.AlertWindows = *alertWindows
	}

	sc.TraceSample = *traceSample
	sc.TraceSeed = *traceSeed

	sc.CheckpointEvery = *checkpointEvery
	sc.CrashAfterRound = *crashAtRound
	if *checkpointDir != "" && *checkpointEvery <= 0 {
		return fmt.Errorf("-checkpoint-dir needs -checkpoint-every")
	}
	// A directory that cannot take the checkpoints fails here, not at
	// the first cadence round after simulating every round before it.
	if *checkpointDir != "" {
		if fi, err := os.Stat(*checkpointDir); err != nil {
			return fmt.Errorf("-checkpoint-dir: %w", err)
		} else if !fi.IsDir() {
			return fmt.Errorf("-checkpoint-dir %s is not a directory", *checkpointDir)
		}
	}
	if *resumePath != "" && *crashAtRound > 0 {
		return fmt.Errorf("-resume and -crash-at-round are mutually exclusive: the crash drill scripts the run that writes the checkpoint; resume without it (or rerun the original flags to crash again)")
	}
	if *checkpointEvery > 0 {
		dir := *checkpointDir
		if dir == "" {
			dir = "."
		}
		sc.OnCheckpoint = func(round int, data []byte) error {
			return lb.WriteSnapshotFile(filepath.Join(dir, fmt.Sprintf("ckpt-%06d.snap", round)), data)
		}
	}

	// Observability attachments share one broker; each consumer gets
	// its own bounded subscription, so a slow one drops its own events
	// without stalling the round loop or the other consumers. Domain
	// alerts ride the same broker, so arming them attaches one too.
	needObs := *shardDebug || *metricsAddr != "" || *eventsOut != "" || *alertBudget > 0 || *traceOut != ""
	if needObs {
		sc.Obs = lb.NewObsBroker()
	}

	var debug *debugRenderer
	if *shardDebug {
		debug = newDebugRenderer(stderr, sc.Subscribe(lb.ObsSubOptions{
			Capacity: 4096,
			Kinds:    obs.Mask(obs.KindLanes, obs.KindShardCost, obs.KindPhase, obs.KindFaults, obs.KindAlert, obs.KindCheckpoint),
		}))
	}

	var sink *obs.Sink
	if *eventsOut != "" {
		w := io.Writer(stdout)
		var f *os.File
		if *eventsOut != "-" {
			if f, err = os.Create(*eventsOut); err != nil {
				return err
			}
			w = f
		}
		sink = obs.NewSink(w, sc.Obs, obs.SubOptions{Capacity: 8192})
		defer func() {
			if f != nil {
				f.Close()
			}
		}()
	}

	var tsink *obs.Sink
	if *traceOut != "" {
		w := io.Writer(stdout)
		var f *os.File
		if *traceOut != "-" {
			if f, err = os.Create(*traceOut); err != nil {
				return err
			}
			w = f
		}
		tsink = obs.NewTraceSink(w, sc.Obs, 8192)
		defer func() {
			if f != nil {
				f.Close()
			}
		}()
	}

	var srv *http.Server
	var metricsURL string
	if *metricsAddr != "" {
		exp := obs.NewExporter(sc.Obs, 8192)
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		exp.PublishExpvar()
		srv = &http.Server{Handler: exp.Mux(), ReadHeaderTimeout: 5 * time.Second}
		go srv.Serve(ln)
		metricsURL = "http://" + ln.Addr().String()
	}

	fmt.Fprintf(stdout, "graph:     %s (n=%d)\n", g.Name(), g.N())
	if speeds != nil {
		minS, maxS := speeds[0], speeds[0]
		for _, s := range speeds {
			minS = math.Min(minS, s)
			maxS = math.Max(maxS, s)
		}
		fmt.Fprintf(stdout, "speeds:    heterogeneous (min=%g max=%g total=%g) — p99 column is load/speed\n",
			minS, maxS, totalSpeed)
	}
	fmt.Fprintf(stdout, "protocol:  %s (eps=%g alpha=%g lazy=%v oracle=%v workers=%d)\n", kind, *eps, *alpha, *lazy, *oracle, nWorkers)
	fmt.Fprintf(stdout, "arrivals:  %s  service: %s  dispatch: %s  churn: %g\n", arr.Name(), svc.Name(), disp.Name(), *churn)
	if topo != nil {
		fmt.Fprintf(stdout, "topology:  %d racks in %d zones  rehome: %s  events: %d\n",
			topo.Racks(), topo.Zones(), rehomer.Name(), len(spec.Events))
	} else if len(spec.Events) > 0 || *rehome != "uniform" {
		fmt.Fprintf(stdout, "rehome:    %s  events: %d\n", rehomer.Name(), len(spec.Events))
	}
	if plan.Active() || *quarantine != "" {
		fmt.Fprintf(stdout, "faults:    ")
		if plan.Active() {
			eff := *plan
			if eff.RetryBase == 0 {
				eff.RetryBase = 1
			}
			if eff.RetryCap == 0 {
				eff.RetryCap = 8
			}
			if eff.Timeout == 0 {
				eff.Timeout = 30
			}
			fmt.Fprintf(stdout, "loss=%g delay=%g(max %d) dup=%g retry=%d:%d:%d partitions=%d",
				eff.Loss, eff.DelayProb, eff.DelayMax, eff.DupProb,
				eff.RetryBase, eff.RetryCap, eff.Timeout, len(eff.Partitions))
		} else {
			fmt.Fprintf(stdout, "none")
		}
		if *quarantine != "" {
			fmt.Fprintf(stdout, "  quarantine=%d:%d:%d", quar.Flaps, quar.Window, quar.Cooloff)
		}
		fmt.Fprintln(stdout)
	}
	if metricsURL != "" {
		fmt.Fprintf(stdout, "metrics:   %s/metrics (expvar /debug/vars, pprof /debug/pprof/)\n", metricsURL)
	}
	if *traceSample > 0 {
		fmt.Fprintf(stdout, "trace:     sample=%g seed=%d", *traceSample, *traceSeed)
		if *traceOut != "" {
			fmt.Fprintf(stdout, " out=%s", *traceOut)
		}
		fmt.Fprintln(stdout)
	}
	if *alertBudget > 0 {
		fmt.Fprintf(stdout, "alerts:    budget=%g%% windows=%d per rack/zone\n", 100**alertBudget, *alertWindows)
	}
	if *checkpointEvery > 0 || *resumePath != "" {
		fmt.Fprintf(stdout, "ckpt:      every=%d", *checkpointEvery)
		if *checkpointEvery > 0 {
			dir := *checkpointDir
			if dir == "" {
				dir = "."
			}
			fmt.Fprintf(stdout, " dir=%s", dir)
		}
		if *resumePath != "" {
			fmt.Fprintf(stdout, " resume=%s", *resumePath)
		}
		if *crashAtRound > 0 {
			fmt.Fprintf(stdout, " crash-at=%d", *crashAtRound)
		}
		fmt.Fprintln(stdout)
	}
	p99Label := "p99load"
	if speeds != nil {
		p99Label = "p99 x/s"
	}
	fmt.Fprintf(stdout, "%8s %10s %10s %10s %10s %10s %10s %6s\n",
		"rounds", "overload%", "mig/round", "arr/round", "dep/round", p99Label, "W-inflight", "up")

	var res lb.DynamicResult
	var runErr error
	if *resumePath != "" {
		res, runErr = resumeRun(sc, *resumePath)
	} else {
		res, runErr = sc.Run()
	}

	// Shut down the observability consumers in dependency order: close
	// the broker so drains see EOF, join the renderer and sink pumps,
	// then (after the test hook scraped) stop the HTTP server.
	if sc.Obs != nil {
		sc.Obs.Close()
	}
	if debug != nil {
		debug.Close()
	}
	if sink != nil {
		if err := sink.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("-events-out: %w", err)
		}
	}
	if tsink != nil {
		if err := tsink.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("-trace-out: %w", err)
		}
	}
	if srv != nil {
		if metricsHook != nil {
			metricsHook(metricsURL)
		}
		srv.Close()
	}
	// The window rows print before the run-error check: a run stopped
	// by -crash-at-round still shows the windows it completed.
	for _, w := range res.Windows {
		p99 := w.P99Load
		if speeds != nil {
			p99 = w.P99LoadPerSpeed
		}
		fmt.Fprintf(stdout, "%4d-%-4d %9.2f%% %10.2f %10.2f %10.2f %10.2f %10.0f %6d\n",
			w.Start, w.End, 100*w.OverloadFrac, w.MigrationRate, w.ArrivalRate,
			w.DepartureRate, p99, w.InFlightWeight, w.UpResources)
	}
	if runErr != nil {
		if errors.Is(runErr, lb.ErrCrashed) {
			return fmt.Errorf("crashed after round %d by -crash-at-round; resume from the last checkpoint with -resume", *crashAtRound)
		}
		return runErr
	}

	fmt.Fprintf(stdout, "\narrived:    %d tasks (weight %.0f)\n", res.Arrived, res.ArrivedWeight)
	fmt.Fprintf(stdout, "departed:   %d tasks (weight %.0f)\n", res.Departed, res.DepartedWeight)
	fmt.Fprintf(stdout, "in flight:  %d tasks (weight %.0f)\n", res.FinalInFlight, res.FinalWeight)
	fmt.Fprintf(stdout, "migrations: %d (weight %.0f)\n", res.Migrations, res.MovedWeight)
	if res.Departed > 0 {
		fmt.Fprintf(stdout, "sojourn:    p50 %.0f p99 %.0f rounds | hops p99 %.0f\n",
			res.Sojourn.Quantile(0.50), res.Sojourn.Quantile(0.99), res.Hops.Quantile(0.99))
	}
	if res.Rehomed > 0 || res.Downs > 0 {
		fmt.Fprintf(stdout, "churn:      %d downs, %d ups, %d tasks re-homed (weight %.0f)\n",
			res.Downs, res.Ups, res.Rehomed, res.RehomedWeight)
	}
	if res.Lost > 0 || res.Delayed > 0 || res.Duplicated > 0 || res.PartitionBlocked > 0 || res.Timeouts > 0 {
		fmt.Fprintf(stdout, "faults:     %d lost (%d retries, %d timeouts), %d delayed, %d duplicated (%d deduped), %d partition-blocked\n",
			res.Lost, res.Retries, res.Timeouts, res.Delayed, res.Duplicated, res.Deduped, res.PartitionBlocked)
	}
	if res.FinalLedger > 0 {
		fmt.Fprintf(stdout, "ledger:     %d moves still in flight (weight %.0f)\n", res.FinalLedger, res.FinalLedgerWeight)
	}
	if res.Bounced > 0 {
		fmt.Fprintf(stdout, "bounced:    %d deliveries returned to source (weight %.0f)\n", res.Bounced, res.BouncedWeight)
	}
	if res.Quarantined > 0 {
		fmt.Fprintf(stdout, "quarantine: %d flapping holds\n", res.Quarantined)
	}
	if len(res.Recoveries) > 0 {
		drained := 0
		for _, rs := range res.Recoveries {
			if rs.Drained() {
				drained++
			}
		}
		fmt.Fprintf(stdout, "recovery:   %d episodes (%d drained), peak post-failure overload %.2f%%",
			len(res.Recoveries), drained, 100*res.PeakPostFailureOverload())
		if mean := res.MeanDrainRounds(); !math.IsNaN(mean) {
			fmt.Fprintf(stdout, ", mean drain %.1f rounds", mean)
		}
		fmt.Fprintln(stdout)
	}
	if frac := res.TailOverloadFrac(2); !math.IsNaN(frac) {
		fmt.Fprintf(stdout, "steady overload (skip 2 windows): %.3f%%\n", 100*frac)
	} else {
		fmt.Fprintln(stdout, "steady overload: run at least 3 windows for a warmed-up figure")
	}
	return nil
}

// resumeRun restores a checkpoint into the configured scenario and
// runs it to completion. The flags must rebuild the checkpointed
// scenario (same graph, seed, horizon, fault plan, ...); any drift is
// a structured restore error, never a silently different run.
func resumeRun(sc lb.DynamicScenario, path string) (lb.DynamicResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return lb.DynamicResult{}, fmt.Errorf("-resume: %w", err)
	}
	eng, err := sc.Resume(f)
	f.Close()
	if err != nil {
		return lb.DynamicResult{}, fmt.Errorf("-resume %s: %w", path, err)
	}
	defer eng.Close()
	return eng.Run()
}

// parseTriple parses a colon-separated "A:B:C" integer triple, the
// shape shared by -retry, -partition entries and -quarantine.
func parseTriple(s string) (a, b, c int, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("%q is not an A:B:C triple", s)
	}
	var v [3]int
	for i, p := range parts {
		if v[i], err = strconv.Atoi(strings.TrimSpace(p)); err != nil {
			return 0, 0, 0, fmt.Errorf("bad field %q in %q", p, s)
		}
	}
	return v[0], v[1], v[2], nil
}
