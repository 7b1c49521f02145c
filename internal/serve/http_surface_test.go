package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rrsched/internal/obs"
)

// httpStatus issues one request against the handler and returns the status.
func httpStatus(t *testing.T, srv *httptest.Server, method, path string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("building %s %s: %v", method, path, err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestHandlerMethodAndInputRefusals sweeps every endpoint's cheap refusal
// paths: wrong verb, malformed bodies, and out-of-range query parameters.
// These are the guards the daemons rely on to turn operator typos into 4xx
// instead of undefined behaviour.
func TestHandlerMethodAndInputRefusals(t *testing.T) {
	svc, _, err := New(Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	cases := []struct {
		method, path string
		body         []byte
		want         int
	}{
		{http.MethodGet, "/v1/tick", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/stats", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/decisions?tenant=x", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/decisions?tenant=", nil, http.StatusBadRequest},
		{http.MethodGet, "/v1/reshard", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/reshard", []byte("{torn"), http.StatusBadRequest},
		{http.MethodPost, "/v1/reshard", []byte(`{"schema":"bogus","shards":2}`), http.StatusBadRequest},
		{http.MethodPost, "/metrics", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/round", nil, http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/round", []byte("{torn"), http.StatusBadRequest},
		{http.MethodPost, "/v1/round", nil, http.StatusBadRequest}, // no request at all
		{http.MethodPost, "/v1/round", []byte(`{"schema":"rrserve/v1","shard":2,"shards":2,"target":1}`), http.StatusBadRequest},
		{http.MethodPost, "/v1/round", []byte(`{"schema":"rrserve/v1","shard":0,"shards":2,"target":-1}`), http.StatusBadRequest},
		{http.MethodPost, "/v1/round", []byte(`{"schema":"rrserve/v1","shard":0,"shards":2,"target":1,"batches":[{"schema":"rrserve/v1","tenant":"t","jobs":[]}]}`), http.StatusBadRequest},
		{http.MethodPost, "/v1/round", []byte(`{"schema":"rrserve/v1","shard":0,"shards":2,"target":1,"batches":[{"schema":"rrserve/v1","tenant":"t","class":"gold","jobs":[{"id":0,"color":0,"delay":4}]}]}`), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := httpStatus(t, srv, c.method, c.path, c.body); got != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, got, c.want)
		}
	}
}

// TestRoundEndpointRequiresHostedMode pins that a well-formed round call
// against a classic service surfaces the mode error rather than succeeding
// vacuously.
func TestRoundEndpointRequiresHostedMode(t *testing.T) {
	svc, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := []byte(`{"schema":"rrserve/v1","shard":0,"shards":1,"target":1}`)
	if got := httpStatus(t, srv, http.MethodPost, "/v1/round", body); got != http.StatusServiceUnavailable {
		t.Fatalf("round call on a classic service: status %d, want %d", got, http.StatusServiceUnavailable)
	}
}

// TestReshardEndpointRoundTrip drives POST /v1/reshard end to end: a valid
// request resizes the pool and the conflict guard refuses a no-op resize.
func TestReshardEndpointRoundTrip(t *testing.T) {
	svc, _, err := New(Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body, err := EncodeReshard(&ReshardRequest{Schema: ReshardSchema, Shards: 3})
	if err != nil {
		t.Fatalf("EncodeReshard: %v", err)
	}
	if got := httpStatus(t, srv, http.MethodPost, "/v1/reshard", body); got != http.StatusOK {
		t.Fatalf("reshard 2->3: status %d, want 200", got)
	}
	if got := svc.Stats().Shards; got != 3 {
		t.Fatalf("shards after reshard: %d, want 3", got)
	}
	// Resizing to the current count is a conflict, not a silent success.
	if got := httpStatus(t, srv, http.MethodPost, "/v1/reshard", body); got != http.StatusConflict {
		t.Fatalf("no-op reshard: status %d, want %d", got, http.StatusConflict)
	}
}

// TestRetryAfterSeconds pins the 429 pacing hint: virtual-time services tell
// clients to retry after the driver's next tick (1s), real-time services
// after one round duration rounded up.
func TestRetryAfterSeconds(t *testing.T) {
	virtual := &Service{cfg: Config{}}
	if got := virtual.retryAfterSeconds(); got != "1" {
		t.Fatalf("virtual retry-after = %q, want \"1\"", got)
	}
	real := &Service{cfg: Config{RoundEvery: 1500 * time.Millisecond}}
	if got := real.retryAfterSeconds(); got != "2" {
		t.Fatalf("real-time retry-after = %q, want \"2\"", got)
	}
}

// TestStartTicksRealTimeService pins the real-time ticker: Start advances
// rounds without a driver, is idempotent, and Close stops it cleanly.
func TestStartTicksRealTimeService(t *testing.T) {
	svc, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 10,
		RoundEvery: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if svc.Virtual() {
		t.Fatal("RoundEvery set but service reports virtual time")
	}
	svc.Start()
	svc.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for svc.Round() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never advanced the round")
		}
		time.Sleep(time.Millisecond)
	}
	svc.Close()
	// A virtual-time service treats Start as a no-op.
	vsvc, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer vsvc.Close()
	vsvc.Start()
	if vsvc.Round() != 0 {
		t.Fatalf("virtual service round moved to %d after Start", vsvc.Round())
	}
}

// TestMetricsEndpointExposition pins the scrape surface: GET /metrics is a
// JSON snapshot document that decodes and carries the checkpoint vocabulary.
func TestMetricsEndpointExposition(t *testing.T) {
	svc, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics document does not decode: %v", err)
	}
	if len(snap.Metrics) == 0 {
		t.Fatal("metrics document is empty")
	}
	if !strings.Contains(buf.String(), obs.MetricCkptChunksWritten) {
		t.Fatalf("exposition lacks the checkpoint vocabulary:\n%.300s", buf.String())
	}
}
