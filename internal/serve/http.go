package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/lineio"
)

// Routes mounts the runtime's front door on mux (typically the obs
// exporter's mux, so ingest, reconfiguration, status, metrics and
// pprof share one listener):
//
//	POST /ingest   — JSON array of task weights; admits the batch into
//	                 the next round. 200 {"accepted":n,"round":t},
//	                 400 invalid weights, 503 backlog full / draining /
//	                 horizon exhausted.
//	POST /reconfig — {"down":[...],"up":[...],"dispatch":"..."}; stages
//	                 drains/adds and an optional dispatch swap for the
//	                 next round boundary.
//	GET  /statusz  — runtime stats JSON.
//	GET  /healthz  — liveness ("ok", or 503 once draining).
//
// A POST body is exactly one JSON value: unknown fields, trailing data
// and a body over maxBody are a 400.
func Routes(mux *http.ServeMux, rt *Runtime) {
	mux.HandleFunc("POST /ingest", rt.handleIngest)
	mux.HandleFunc("POST /reconfig", rt.handleReconfig)
	mux.HandleFunc("GET /statusz", rt.handleStatus)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
}

// maxBody bounds request bodies (16 MiB ≈ a two-hundred-thousand-task
// batch) so a runaway client cannot balloon the front door.
const maxBody = 16 << 20

func (rt *Runtime) handleIngest(w http.ResponseWriter, r *http.Request) {
	var weights []float64
	if !decodeBody(w, r, &weights) {
		return
	}
	n, err := rt.Ingest(weights)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"accepted": n,
		"round":    rt.Stats().NextRound,
	})
}

// reconfigRequest is the /reconfig body.
type reconfigRequest struct {
	Down     []int  `json:"down,omitempty"`
	Up       []int  `json:"up,omitempty"`
	Dispatch string `json:"dispatch,omitempty"`
}

func (rt *Runtime) handleReconfig(w http.ResponseWriter, r *http.Request) {
	var req reconfigRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := rt.Reconfigure(req.Down, req.Up, req.Dispatch); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"staged": true})
}

func (rt *Runtime) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

func (rt *Runtime) handleHealth(w http.ResponseWriter, r *http.Request) {
	if rt.Stats().Draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// decodeBody parses a request body holding exactly one JSON value into
// dst, with the round log's strict rules (unknown fields and trailing
// data rejected), answering 400 itself on malformed input.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err == nil {
		err = lineio.Decode(bytes.TrimSpace(body), dst)
	}
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeErr maps runtime errors onto statuses: overload and lifecycle
// rejections are 503 (retryable), validation failures 400.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrBackpressure) || errors.Is(err, ErrDraining) || errors.Is(err, ErrHorizon) {
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
