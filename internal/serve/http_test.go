package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func frontDoor(t *testing.T, rt *Runtime) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	Routes(mux, rt)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func TestHTTPIngest(t *testing.T) {
	rt := testRuntime(t, Options{})
	srv := frontDoor(t, rt)

	code, body := post(t, srv.URL+"/ingest", "[1, 2.5, 3]")
	if code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
	var resp struct {
		Accepted int `json:"accepted"`
		Round    int `json:"round"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 3 || resp.Round != 0 {
		t.Fatalf("ingest response %+v, want accepted=3 round=0", resp)
	}
	if st := rt.Stats(); st.Pending != 3 {
		t.Fatalf("pending %d after ingest, want 3", st.Pending)
	}

	if code, body := post(t, srv.URL+"/ingest", "[0.5]"); code != http.StatusBadRequest ||
		!strings.Contains(body, "violates wmin >= 1") {
		t.Fatalf("invalid weight: %d %s, want 400 with the weight message", code, body)
	}
	if code, _ := post(t, srv.URL+"/ingest", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", code)
	}
	// GET on a POST-only route is rejected by the method-aware mux.
	if code, _ := get(t, srv.URL+"/ingest"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d, want 405", code)
	}
}

func TestHTTPIngestOverloadIs503(t *testing.T) {
	rt := testRuntime(t, Options{MaxPending: 2})
	srv := frontDoor(t, rt)
	if code, _ := post(t, srv.URL+"/ingest", "[1,1]"); code != http.StatusOK {
		t.Fatalf("fill: %d, want 200", code)
	}
	code, body := post(t, srv.URL+"/ingest", "[1]")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "backlog full") {
		t.Fatalf("overflow: %d %s, want 503 backlog full", code, body)
	}
}

func TestHTTPReconfigAndStatus(t *testing.T) {
	rt := testRuntime(t, Options{})
	srv := frontDoor(t, rt)

	code, body := post(t, srv.URL+"/reconfig", `{"down":[2],"dispatch":"power-of-2"}`)
	if code != http.StatusOK || !strings.Contains(body, `"staged":true`) {
		t.Fatalf("reconfig: %d %s", code, body)
	}
	if code, body := post(t, srv.URL+"/reconfig", `{"dispatch":"bogus"}`); code != http.StatusBadRequest ||
		!strings.Contains(body, "unknown dispatch policy") {
		t.Fatalf("bad reconfig: %d %s, want 400", code, body)
	}
	if err := rt.StepRound(); err != nil {
		t.Fatal(err)
	}

	code, body = get(t, srv.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d %s", code, body)
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.NextRound != 1 || st.UpResources != twinN-1 || st.Dispatch != "power-of-2" {
		t.Fatalf("statusz %+v: want next_round=1, one drained resource, the swapped dispatch", st)
	}
}

func TestHTTPHealthz(t *testing.T) {
	rt := testRuntime(t, Options{})
	srv := frontDoor(t, rt)
	if code, body := get(t, srv.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := rt.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
	if code, body := post(t, srv.URL+"/ingest", "[1]"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "draining") {
		t.Fatalf("ingest while draining: %d %s, want 503 draining", code, body)
	}
}

// TestHTTPStrictBodies: a body is exactly one JSON value. A misspelled
// field or data after the value is a 400 that stages and admits
// nothing; trailing whitespace is fine.
func TestHTTPStrictBodies(t *testing.T) {
	for _, tc := range []struct {
		name, path, body string
		code             int
		want             string
	}{
		{"reconfig unknown field", "/reconfig", `{"dwon":[3]}`, http.StatusBadRequest, `unknown field "dwon"`},
		{"ingest trailing data", "/ingest", "[1,2] garbage", http.StatusBadRequest, "trailing data"},
		{"ingest second value", "/ingest", "[1,2][3]", http.StatusBadRequest, "trailing data"},
		{"ingest trailing whitespace", "/ingest", "[1,2] \r\n", http.StatusOK, `"accepted":2`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := testRuntime(t, Options{})
			srv := frontDoor(t, rt)
			code, body := post(t, srv.URL+tc.path, tc.body)
			if code != tc.code || !strings.Contains(body, tc.want) {
				t.Fatalf("POST %s %q: %d %s, want %d containing %q", tc.path, tc.body, code, body, tc.code, tc.want)
			}
			if n := rt.pendingLen(); code != http.StatusOK && n != 0 {
				t.Fatalf("rejected body staged %d items", n)
			}
		})
	}
}

func TestHTTPBodyLimit(t *testing.T) {
	rt := testRuntime(t, Options{})
	srv := frontDoor(t, rt)
	// A body past maxBody is refused whole.
	big := bytes.Repeat([]byte("1,"), maxBody)
	code, body := post(t, srv.URL+"/ingest", "["+string(big)+"1]")
	if code != http.StatusBadRequest || !strings.Contains(body, "too large") {
		t.Fatalf("oversized body: %d %s, want 400 too large", code, body)
	}
}

// TestHTTPStatusSojournPercentiles: /statusz carries the engine's
// always-on lifecycle percentiles once tasks have departed.
func TestHTTPStatusSojournPercentiles(t *testing.T) {
	rt := testRuntime(t, Options{})
	srv := frontDoor(t, rt)
	if code, _ := post(t, srv.URL+"/ingest", "[1,2,3,1,2]"); code != http.StatusOK {
		t.Fatalf("ingest: %d, want 200", code)
	}
	// Weight-proportional service at rate 1 drains the heaviest ingested
	// task in 3 rounds; step past that so every task has departed.
	for i := 0; i < 6; i++ {
		if err := rt.StepRound(); err != nil {
			t.Fatal(err)
		}
	}
	code, body := get(t, srv.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d %s", code, body)
	}
	for _, key := range []string{`"sojourn_p50"`, `"sojourn_p95"`, `"sojourn_p99"`, `"hops_p99"`} {
		if !strings.Contains(body, key) {
			t.Errorf("statusz body missing %s:\n%s", key, body)
		}
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.SojournP50 <= 0 || st.SojournP99 < st.SojournP50 {
		t.Errorf("statusz sojourn percentiles %+v: want p50 > 0 and p99 >= p50", st)
	}
}
