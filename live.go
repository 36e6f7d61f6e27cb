package thresholdlb

import (
	"io"
	"net/http"

	"repro/internal/dynamic"
	"repro/internal/serve"
)

// Live serving: DynamicScenario describes the fleet and protocols as
// usual, but instead of drawing arrivals from a configured process the
// runtime ingests them from callers (typically cmd/lbserve's HTTP
// front door), ticks rounds on a wall clock or adaptively on backlog,
// and supports online reconfiguration — drain/add resources, swap the
// dispatch policy — without stopping the world.
//
// Every admitted batch is recorded into a deterministic round log;
// ReplayRoundLog re-runs the log through the lockstep engine and
// reproduces the live Result bit-for-bit (the twin-equivalence
// guarantee, pinned by internal/serve's test suite).

// ExternalArrivals marks a scenario whose arrivals are pushed in live
// (or replayed from a round log) instead of drawn from a synthetic
// process. LiveRuntime, ResumeLiveRuntime and ReplayRoundLog default
// a nil Arrivals to it.
func ExternalArrivals() Arrivals { return dynamic.External{} }

// StepInput is one round's worth of externally pushed input for
// DynamicEngine.Step — the primitive under the live runtime.
type StepInput = dynamic.StepInput

// LiveOptions tune the live runtime's pacing and persistence.
type LiveOptions = serve.Options

// LiveRuntime is the live serving runtime around a scenario's engine.
type LiveRuntime = serve.Runtime

// LiveRuntimeStats is the runtime's status snapshot.
type LiveRuntimeStats = serve.Stats

// RoundRecord is one stepped round's external input in the round log.
type RoundRecord = serve.RoundRecord

// LiveRuntime builds the scenario's live runtime: a fresh engine plus
// the serving loop. Drive it with Run (wall-clock) or StepRound
// (manual), push arrivals with Ingest, and Close when done.
func (sc DynamicScenario) LiveRuntime(opts LiveOptions) (*LiveRuntime, error) {
	if sc.Arrivals == nil {
		sc.Arrivals = ExternalArrivals()
	}
	eng, err := sc.Engine()
	if err != nil {
		return nil, err
	}
	return serve.New(eng, "", opts), nil
}

// ResumeLiveRuntime restores a live runtime from a shutdown checkpoint
// (resume-on-boot): the engine continues from the snapshot's round,
// and the dispatch policy in force — possibly swapped online since
// boot — is recovered from the recorded round log.
func (sc DynamicScenario) ResumeLiveRuntime(r io.Reader, recs []RoundRecord, opts LiveOptions) (*LiveRuntime, error) {
	if sc.Arrivals == nil {
		sc.Arrivals = ExternalArrivals()
	}
	eng, err := sc.Resume(r)
	if err != nil {
		return nil, err
	}
	name := serve.RecoverDispatch(recs, eng.NextRound())
	if name != "" {
		d, err := serve.ParseDispatch(name)
		if err != nil {
			eng.Close()
			return nil, err
		}
		if err := eng.SetDispatch(d); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return serve.New(eng, name, opts), nil
}

// ReplayRoundLog drives a fresh lockstep engine through a recorded
// live run and returns its Result — bit-identical to the live one when
// the scenario matches the live configuration (same graph, seed,
// protocols, plans; Workers may differ, results never do).
func (sc DynamicScenario) ReplayRoundLog(recs []RoundRecord) (DynamicResult, error) {
	if sc.Arrivals == nil {
		sc.Arrivals = ExternalArrivals()
	}
	eng, err := sc.Engine()
	if err != nil {
		return DynamicResult{}, err
	}
	defer eng.Close()
	return serve.Replay(eng, recs)
}

// ReadRoundLog parses and validates a JSONL round log written by the
// live runtime.
func ReadRoundLog(r io.Reader) ([]RoundRecord, error) { return serve.ReadRoundLog(r) }

// WriteRoundLog writes records as a JSONL round log.
func WriteRoundLog(w io.Writer, recs []RoundRecord) error { return serve.WriteRecords(w, recs) }

// LiveRoutes mounts the runtime's HTTP front door (POST /ingest, POST
// /reconfig, GET /statusz, GET /healthz) on mux — typically the obs
// exporter's Mux so the front door, metrics and pprof share one
// listener.
func LiveRoutes(mux *http.ServeMux, rt *LiveRuntime) { serve.Routes(mux, rt) }

// ParseLiveDispatch resolves a dispatch-policy name from the
// reconfigure grammar: uniform | hotspot:<r> | power-of-<d> |
// speed-weighted.
func ParseLiveDispatch(name string) (Dispatch, error) { return serve.ParseDispatch(name) }
