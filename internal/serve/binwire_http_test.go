package serve

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrsched/internal/model"
	"rrsched/internal/obs"
)

// TestMixedProtocolDecisionDeterminism is the headline e2e property of the
// v2 wire: half the tenants speak binary, half JSON, all submitting
// concurrently against a 4-shard service — and every tenant's recorded
// decision stream is byte-identical to a bare stream.Scheduler fed the same
// arrivals. The wire format must be invisible to scheduling.
func TestMixedProtocolDecisionDeterminism(t *testing.T) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	tenants := detFixture(t, 42)
	clients := make([]*Client, len(tenants))
	for i := range tenants {
		mode := WireBinary
		if i%2 == 1 {
			mode = WireJSON
		}
		clients[i] = NewClientWire(srv.URL, DefaultRetryPolicy(), mode)
	}
	ticker := NewClientWire(srv.URL, DefaultRetryPolicy(), WireBinary)

	totalRounds := int64(45)
	for r := int64(0); r < totalRounds; r++ {
		var wg sync.WaitGroup
		for i := range tenants {
			tn := &tenants[i]
			local := r - tn.startRound
			if local < 0 {
				continue
			}
			jobs := tn.seq.Request(local)
			if len(jobs) == 0 {
				continue
			}
			wg.Add(1)
			go func(client *Client, name string, jobs []model.Job, split int) {
				defer wg.Done()
				for len(jobs) > 0 {
					n := split
					if n > len(jobs) {
						n = len(jobs)
					}
					wire := make([]SubmitJob, n)
					for k, j := range jobs[:n] {
						wire[k] = SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay}
					}
					jobs = jobs[n:]
					out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: name, Jobs: wire})
					if err != nil || !out.Accepted {
						t.Errorf("submit %s: out=%+v err=%v", name, out, err)
						return
					}
				}
			}(clients[i], tn.name, jobs, int(r%3)+1)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if _, err := ticker.Tick(1); err != nil {
			t.Fatalf("Tick at round %d: %v", r, err)
		}
	}

	ring := newHashRing(cfg.Shards)
	for i, tn := range tenants {
		got, err := clients[i].DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("DecisionsRaw(%s): %v", tn.name, err)
		}
		want, err := MarshalResponse(&DecisionsResponse{
			Schema:    DecisionsSchema,
			Tenant:    tn.name,
			Shard:     ring.ShardOf(tn.name),
			Epoch:     epochOf(tn),
			Round:     totalRounds,
			Decisions: referenceDecisions(t, tn, totalRounds, cfg),
		})
		if err != nil {
			t.Fatalf("MarshalResponse: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s (wire %s): decisions diverge from bare scheduler\nservice:   %s\nreference: %s",
				tn.name, clients[i].wire, excerpt(got, want), excerpt(want, got))
		}
	}
}

// jsonOnlyMiddleware emulates a pre-v2 server in front of handler: it has no
// idea binary content exists, so the request reaches the JSON decoder as-is
// and fails with the JSON decoder's 400 — exactly what an old rrserve would
// answer. binarySeen counts frames that reached the "old" server.
func jsonOnlyMiddleware(handler http.Handler, binarySeen *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if IsBinaryContent(r.Header.Get("Content-Type")) {
			binarySeen.Add(1)
			r.Header.Set("Content-Type", ContentTypeJSON)
		}
		r.Header.Del("Accept")
		handler.ServeHTTP(w, r)
	})
}

// TestWireBinaryModeDoesNotFallBack: a default (binary) client surfaces a
// JSON-only server's rejection instead of silently downgrading — there is no
// fallback to JSON.
func TestWireBinaryModeDoesNotFallBack(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	var binarySeen atomic.Int64
	srv := httptest.NewServer(jsonOnlyMiddleware(svc.Handler(), &binarySeen))
	defer srv.Close()

	client := NewClientPolicy(srv.URL, SingleShot())
	_, err = client.Submit(&SubmitRequest{
		Schema: WireSchema, Tenant: "pinned", Jobs: []SubmitJob{{ID: 0, Delay: 4}},
	})
	if err == nil {
		t.Fatal("binary client succeeded against a JSON-only server")
	}
	if n := binarySeen.Load(); n != 1 {
		t.Fatalf("JSON-only server saw %d binary frames, want exactly 1 (no resend)", n)
	}
}

// waitPoolBalance polls until both pools report Gets == Puts (handlers
// release their pooled buffers in defers that may run after the response is
// flushed) or the deadline passes.
func waitPoolBalance(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fb, sr := FrameBufferPoolStats(), SubmitRequestPoolStats()
		if fb.Gets == fb.Puts && sr.Gets == sr.Puts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool leak: frameBuf gets=%d puts=%d, submitReq gets=%d puts=%d",
				fb.Gets, fb.Puts, sr.Gets, sr.Puts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBinaryFrameErrorsAreTyped400s: every malformed-frame class POSTed at
// /v1/jobs yields a 400 with a JSON error body, and once the dust settles the
// buffer pools balance — no request leaks a pooled buffer.
func TestBinaryFrameErrorsAreTyped400s(t *testing.T) {
	_, client := newTestService(t, Config{})
	valid, err := EncodeSubmitBinary(&SubmitRequest{
		Schema: WireSchema, Tenant: "edge", Jobs: []SubmitJob{{ID: 1, Delay: 4}},
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	oversized := append([]byte(nil), valid...)
	oversized[4], oversized[5], oversized[6], oversized[7] = 0xff, 0xff, 0xff, 0x0f

	cases := []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"truncated header", valid[:5]},
		{"truncated payload", valid[:len(valid)-3]},
		{"oversized length prefix", oversized},
		{"trailing bytes", append(append([]byte(nil), valid...), 1, 2, 3)},
		{"bad magic", append([]byte("XX"), valid[2:]...)},
	}
	for _, tc := range cases {
		resp, err := http.Post(client.base+"/v1/jobs", ContentTypeBinary, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: post: %v", tc.name, err)
		}
		var er ErrorResponse
		if err := decodeBody(resp.Body, &er); err != nil {
			t.Fatalf("%s: error body is not JSON: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if er.Error == "" {
			t.Errorf("%s: empty error body", tc.name)
		}
		// Frame-level errors must not wear the JSON decoder's prefix: the 400
		// has to say which codec refused the request.
		if strings.Contains(er.Error, "decoding submit request") {
			t.Errorf("%s: frame error %q carries the JSON decoder's prefix", tc.name, er.Error)
		}
	}
	waitPoolBalance(t)
}

// TestMidFrameConnectionDrop: a client that advertises a large body and
// hangs up mid-frame must not leak a goroutine or a pooled buffer; the
// service just abandons the request.
func TestMidFrameConnectionDrop(t *testing.T) {
	_, client := newTestService(t, Config{})
	addr := strings.TrimPrefix(client.base, "http://")

	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		// Declare 4096 body bytes, send a valid header + a sliver, vanish.
		fmt.Fprintf(conn, "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: %s\r\nContent-Length: 4096\r\n\r\n", ContentTypeBinary)
		_, _ = conn.Write([]byte{frameMagic0, frameMagic1, frameVersion, byte(FrameSubmit), 0, 16})
		conn.Close()
	}
	waitPoolBalance(t)
	// Goroutine count returns to the neighborhood of the baseline once the
	// aborted handlers unwind (http keep-alive goroutines come and go, so
	// allow slack — a leak of 8 would exceed it).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d, baseline %d: handler leak after connection drops", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The service is still fully functional.
	out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "still-alive", Jobs: []SubmitJob{{ID: 0, Delay: 4}}})
	if err != nil || !out.Accepted {
		t.Fatalf("submit after drops: out=%+v err=%v", out, err)
	}
}

// TestCrossFormatDuplicateVerification: the duplicate-batch verdict is a
// property of the admitted state, not the codec — a batch admitted in one
// wire format answers identically when resent in the other, including the
// 400 when the resend's delay bounds disagree with admitted state.
func TestCrossFormatDuplicateVerification(t *testing.T) {
	_, c := newTestService(t, Config{})
	jsonClient := NewClientWire(c.base, DefaultRetryPolicy(), WireJSON)
	binClient := NewClientWire(c.base, DefaultRetryPolicy(), WireBinary)

	jobs := []SubmitJob{{ID: 0, Color: 0, Delay: 4}, {ID: 1, Color: 1, Delay: 8}}
	doctored := []SubmitJob{{ID: 0, Color: 0, Delay: 16}, {ID: 1, Color: 1, Delay: 8}}

	directions := []struct {
		name          string
		tenant        string
		first, resend *Client
	}{
		{"json then binary", "cross-a", jsonClient, binClient},
		{"binary then json", "cross-b", binClient, jsonClient},
	}
	for _, d := range directions {
		out, err := d.first.Submit(&SubmitRequest{Schema: WireSchema, Tenant: d.tenant, Jobs: jobs})
		if err != nil || !out.Accepted {
			t.Fatalf("%s: first submit: out=%+v err=%v", d.name, out, err)
		}
		out, err = d.resend.Submit(&SubmitRequest{Schema: WireSchema, Tenant: d.tenant, Jobs: jobs})
		if err != nil {
			t.Fatalf("%s: cross-format resend: %v", d.name, err)
		}
		if !out.Duplicate {
			t.Fatalf("%s: cross-format resend outcome %+v, want Duplicate", d.name, out)
		}
		_, err = d.resend.Submit(&SubmitRequest{Schema: WireSchema, Tenant: d.tenant, Jobs: doctored})
		if err == nil || !strings.Contains(err.Error(), "disagrees with admitted state") {
			t.Fatalf("%s: doctored resend err=%v, want delay-disagreement 400", d.name, err)
		}
	}
}

// TestWireMetricsObserved: the wire metric bundle moves — frame counters by
// codec, byte counters, and the coalescing histogram all show traffic after a
// mixed run.
func TestWireMetricsObserved(t *testing.T) {
	_, c := newTestService(t, Config{})
	jsonClient := NewClientWire(c.base, DefaultRetryPolicy(), WireJSON)
	binClient := NewClientWire(c.base, DefaultRetryPolicy(), WireBinary)
	for i := int64(0); i < 4; i++ {
		if _, err := jsonClient.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "mj", Jobs: []SubmitJob{{ID: i, Delay: 4}}}); err != nil {
			t.Fatalf("json submit: %v", err)
		}
		if _, err := binClient.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "mb", Jobs: []SubmitJob{{ID: i, Delay: 4}}}); err != nil {
			t.Fatalf("binary submit: %v", err)
		}
	}
	snap, err := binClient.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, name := range []string{obs.MetricWireFramesJSON, obs.MetricWireFramesBinary, obs.MetricWireBytesIn, obs.MetricWireBytesOut} {
		if v, ok := snap.Counter(name); !ok || v < 4 {
			t.Errorf("%s = %d (ok=%v), want >= 4", name, v, ok)
		}
	}
	if h, ok := snap.Histogram(obs.MetricWireCoalesced); !ok || h.Count < 8 {
		t.Errorf("%s count = %d (ok=%v), want >= 8 shard wakeups", obs.MetricWireCoalesced, h.Count, ok)
	}
}

// TestShardCoalescing: many concurrent submits against one shard drain in
// fewer wakeups than commands — the histogram's observation count (wakeups)
// stays below its sum (commands) once the inbox actually queues.
func TestShardCoalescing(t *testing.T) {
	_, c := newTestService(t, Config{Shards: 1})
	binClient := NewClientWire(c.base, DefaultRetryPolicy(), WireBinary)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("coalesce-%d", w)
			for i := int64(0); i < 16; i++ {
				if _, err := binClient.Submit(&SubmitRequest{Schema: WireSchema, Tenant: tenant, Jobs: []SubmitJob{{ID: i, Delay: 4}}}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	snap, err := binClient.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	h, ok := snap.Histogram(obs.MetricWireCoalesced)
	if !ok {
		t.Fatal("coalescing histogram missing")
	}
	if h.Sum < 128 {
		t.Fatalf("coalesced sum %d, want >= 128 commands observed", h.Sum)
	}
	if h.Count > h.Sum {
		t.Fatalf("wakeups %d exceed commands %d", h.Count, h.Sum)
	}
}
