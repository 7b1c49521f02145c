package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrsched/internal/serve"
)

// TestSelfFenceBoundedByWallClock pins the fence-timing contract: a worker
// facing a packet-blackhole partition — heartbeats hang instead of failing
// fast — must fence itself within the wall-clock heartbeat budget. The old
// attempt-counting fence needed missBudget *completed* attempts, each hostage
// to the transport's 30s timeout, leaving a ~90s split-brain window after the
// dispatcher had already failed the shards over.
func TestSelfFenceBoundedByWallClock(t *testing.T) {
	const every = 40 * time.Millisecond
	var beats atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", func(w http.ResponseWriter, r *http.Request) {
		resp, err := json.Marshal(RegisterResponse{
			Schema:           WireSchema,
			Config:           ServiceConfig{Shards: 1, Resources: 8, Delta: 4, Watermark: 8},
			HeartbeatEveryMs: every.Milliseconds(),
			MissBudget:       3,
		})
		if err != nil {
			t.Errorf("encoding register response: %v", err)
		}
		_, _ = w.Write(resp)
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server can detect the client abandoning the
		// request (and cancel r.Context) once the worker's timeout fires.
		_, _ = io.Copy(io.Discard, r.Body)
		if beats.Add(1) == 1 {
			resp, err := json.Marshal(HeartbeatResponse{
				Schema: WireSchema,
				Grants: []LeaseGrant{{Shard: 0, Epoch: 1, Round: 0}},
			})
			if err != nil {
				t.Errorf("encoding heartbeat response: %v", err)
			}
			_, _ = w.Write(resp)
			return
		}
		<-r.Context().Done() // blackhole: hang until the client gives up
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w, err := StartWorker("w1", srv.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker: %v", err)
	}
	defer w.Kill()

	deadline := time.Now().Add(5 * time.Second)
	for len(w.Held()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("grant never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every heartbeat from here on hangs. The fence must fire once the
	// wall-clock budget (3 × 40ms) since the last success elapses, plus
	// scheduling slack — nowhere near the 30s transport default.
	start := time.Now()
	for len(w.Held()) != 0 {
		if time.Since(start) > 2*time.Second {
			t.Fatal("worker did not fence within the wall-clock heartbeat budget")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRoundSurvivesLostCheckpointPush pins the round call's push-or-fail
// rule: a round whose tick advanced the shard but whose checkpoint push was
// lost in flight must not count as done until the dispatcher's store has
// caught up (a resent call pushes without ticking), or a crash right after
// the round would restore the shard two rounds behind the driver and
// silently drop a round's arrivals.
func TestRoundSurvivesLostCheckpointPush(t *testing.T) {
	d, err := New(Config{
		Service:        ServiceConfig{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true},
		HeartbeatEvery: 50 * time.Millisecond,
		MissBudget:     2,
	})
	if err != nil {
		t.Fatalf("New dispatcher: %v", err)
	}
	t.Cleanup(d.Close)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	// The worker registers and heartbeats through a proxy that can drop one
	// shard's checkpoint pushes, so only that push path is faulted. The
	// driver ticks shards concurrently, so the fault names its shard; other
	// shards' pushes pass.
	const faultShard = 1
	var dropPushes atomic.Int32
	proxy := checkpointProxy(t, srv.URL, func(push *CheckpointPush) bool {
		if push.Shard != faultShard || dropPushes.Load() == 0 {
			return false
		}
		dropPushes.Add(-1)
		return true
	})

	w1, err := StartWorker("w1", proxy.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker w1: %v", err)
	}
	t.Cleanup(w1.Kill)
	waitAssigned(t, d, 4)

	driver, err := NewDriver(srv.URL, DriverConfig{Attempts: 400, RetryEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	tenants := failoverFixture(t, 99)

	const faultRound = 6
	for r := int64(0); r < foTotalRounds; r++ {
		batches := batchesAt(tenants, r)
		if r == faultRound {
			// Drop the fault shard's next two pushes: this round's tick
			// advances the shard while the store stays behind, and the
			// resent round call, which only pushes, is lost too. Round must
			// not return until the store has caught up anyway.
			dropPushes.Store(2)
		}
		if err := driver.Round(batches); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		if r == faultRound {
			if n := dropPushes.Load(); n != 0 {
				t.Fatalf("fault not exercised: %d injected push drops unconsumed", n)
			}
			// The worker dies before it pushes anything newer. The stored
			// checkpoints the driver just confirmed are all the failover has.
			w1.Kill()
			w2, err := StartWorker("w2", srv.URL, "127.0.0.1:0", io.Discard)
			if err != nil {
				t.Fatalf("StartWorker w2: %v", err)
			}
			t.Cleanup(w2.Kill)
		}
	}

	verifyStreams(t, driver, tenants, d.cfg.Service)
}

// TestLostCheckpointFailedRoundTicksOnce pins what a Round that failed
// part-way leaves for the next one. One shard's pushes are lost for a whole
// Round: that shard's tick advances it while the store stays behind, the
// other shards finish, and Round gives up. The next Round, with the same
// batches and target, finds every shard at the target: the shards the failed
// Round advanced only push, and none is ticked a second time.
func TestLostCheckpointFailedRoundTicksOnce(t *testing.T) {
	d, err := New(Config{
		Service:        ServiceConfig{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true},
		HeartbeatEvery: 50 * time.Millisecond,
		MissBudget:     4,
	})
	if err != nil {
		t.Fatalf("New dispatcher: %v", err)
	}
	t.Cleanup(d.Close)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	const faultShard = 2
	var losePushes atomic.Bool
	proxy := checkpointProxy(t, srv.URL, func(push *CheckpointPush) bool {
		return push.Shard == faultShard && losePushes.Load()
	})
	w1, err := StartWorker("w1", proxy.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker w1: %v", err)
	}
	t.Cleanup(w1.Kill)
	waitAssigned(t, d, 4)

	// Patience (40 × 10ms) spans a heartbeat miss on a loaded host, yet a
	// Round that loses every push of one shard still gives up quickly.
	driver, err := NewDriver(srv.URL, DriverConfig{Attempts: 40, RetryEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	tenants := failoverFixture(t, 5)
	const faultRound = 7
	for r := int64(0); r < foTotalRounds; r++ {
		batches := batchesAt(tenants, r)
		if r == faultRound {
			losePushes.Store(true)
			if err := driver.Round(batches); err == nil {
				t.Fatal("round survived losing every push of one shard")
			}
			losePushes.Store(false)
			for shard := 0; shard < 4; shard++ {
				if got, err := ownerRound(driver, shard); err != nil || got != r+1 {
					t.Fatalf("after the failed round, shard %d is at round %d (err %v), want %d: the failure was not part-way", shard, got, err, r+1)
				}
			}
			if got := driver.CurrentRound(); got != r {
				t.Fatalf("failed round advanced the driver to %d, want %d", got, r)
			}
		}
		if err := driver.Round(batches); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		if r == faultRound {
			for shard := 0; shard < 4; shard++ {
				if got, err := ownerRound(driver, shard); err != nil || got != r+1 {
					t.Fatalf("after the retried round, shard %d is at round %d (err %v), want %d", shard, got, err, r+1)
				}
			}
			for _, e := range d.Placement().Shards {
				if e.Round != r+1 {
					t.Fatalf("after the retried round, shard %d is stored at round %d, want %d", e.Shard, e.Round, r+1)
				}
			}
		}
	}
	verifyStreams(t, driver, tenants, d.cfg.Service)
}

// TestFleetRoundOneCallPerShard pins the calls of a clean Round on a 4-shard,
// 2-worker fleet: one placement read and one round call per shard (each
// answered after one checkpoint push), and no other request to a worker — no
// submit, stats read or sync. Then one shard's round response is lost once:
// the driver resends the same call, and the shard ends at the target, ticked
// once, with its checkpoint at the target stored.
func TestFleetRoundOneCallPerShard(t *testing.T) {
	d, err := New(Config{
		Service:        ServiceConfig{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true},
		HeartbeatEvery: 50 * time.Millisecond,
		MissBudget:     8,
	})
	if err != nil {
		t.Fatalf("New dispatcher: %v", err)
	}
	t.Cleanup(d.Close)
	var mu sync.Mutex
	calls := map[string]int{}
	sent := map[int][][]byte{} // round-call bodies by shard
	count := func(key string) {
		mu.Lock()
		calls[key]++
		mu.Unlock()
	}
	dh := d.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		count("dispatcher " + r.Method + " " + r.URL.Path)
		dh.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	const faultShard = 1
	var dropOnce atomic.Bool
	var workers []*Worker
	for _, name := range []string{"w1", "w2"} {
		w, err := StartWorker(name, srv.URL, "127.0.0.1:0", io.Discard)
		if err != nil {
			t.Fatalf("StartWorker %s: %v", name, err)
		}
		t.Cleanup(w.Kill)
		inner := w.hswap.h
		w.hswap.swap(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			count("worker " + r.Method + " " + r.URL.Path)
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			req, err := serve.DecodeRoundBinary(body)
			if r.URL.Path != "/v1/round" || err != nil {
				inner.ServeHTTP(rw, r)
				return
			}
			mu.Lock()
			sent[req.Shard] = append(sent[req.Shard], body)
			mu.Unlock()
			if req.Shard == faultShard && dropOnce.CompareAndSwap(true, false) {
				// The worker runs the call; only its response is lost.
				inner.ServeHTTP(httptest.NewRecorder(), r)
				http.Error(rw, `{"error":"injected response loss"}`, http.StatusBadGateway)
				return
			}
			inner.ServeHTTP(rw, r)
		}))
		workers = append(workers, w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(workers[0].Held()) != 2 || len(workers[1].Held()) != 2 || d.Stats().Assigned != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("shards never reached a fair share: %+v", d.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	driver, err := NewDriver(srv.URL, DriverConfig{Attempts: 200, RetryEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	tenants := failoverFixture(t, 17)
	r := int64(0)
	round := func() {
		t.Helper()
		if err := driver.Round(batchesAt(tenants, r)); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		r++
	}
	snapshot := func() (map[string]int, map[int]int) {
		mu.Lock()
		defer mu.Unlock()
		c := map[string]int{}
		for k, v := range calls {
			c[k] = v
		}
		perShard := map[int]int{}
		for shard, bodies := range sent {
			perShard[shard] = len(bodies)
		}
		return c, perShard
	}
	leaseChanges := func() int64 {
		return d.met.LeaseGrants.Value() + d.met.LeaseRevokes.Value() + d.met.StaleEpochs.Value()
	}

	// A round during which placement moved (a missed heartbeat on a loaded
	// host) is not clean; pin the first one that is.
	round()
	clean := false
	for try := 0; try < 10 && !clean; try++ {
		before, shardsBefore := snapshot()
		leases := leaseChanges()
		round()
		if leaseChanges() != leases {
			continue
		}
		clean = true
		after, shardsAfter := snapshot()
		want := map[string]int{
			"dispatcher GET /v1/placement":   1,
			"dispatcher POST /v1/checkpoint": 4,
			"worker POST /v1/round":          4,
		}
		for key := range after {
			if key == "dispatcher POST /v1/heartbeat" {
				continue
			}
			if got := after[key] - before[key]; got != want[key] {
				t.Errorf("clean round %d: %d %s requests, want %d", r, got, key, want[key])
			}
		}
		for shard := 0; shard < 4; shard++ {
			if got := shardsAfter[shard] - shardsBefore[shard]; got != 1 {
				t.Errorf("clean round %d: %d round calls to shard %d, want 1", r, got, shard)
			}
		}
	}
	if !clean {
		t.Fatal("placement moved during every measured round")
	}

	// Lose the fault shard's round response once.
	target := r + 1
	_, shardsBefore := snapshot()
	dropOnce.Store(true)
	round()
	if dropOnce.Load() {
		t.Fatal("fault not exercised: no round response was dropped")
	}
	mu.Lock()
	resent := append([][]byte(nil), sent[faultShard][shardsBefore[faultShard]:]...)
	mu.Unlock()
	if len(resent) < 2 {
		t.Fatalf("the lost response was not followed by a resend: %d round calls", len(resent))
	}
	for i := 1; i < len(resent); i++ {
		if !bytes.Equal(resent[i], resent[0]) {
			t.Fatalf("resend %d differs from the lost call", i)
		}
	}
	if got, err := ownerRound(driver, faultShard); err != nil || got != target {
		t.Fatalf("shard %d is at round %d (err %v) after the resent call, want %d: ticked more than once", faultShard, got, err, target)
	}
	for _, e := range d.Placement().Shards {
		if e.Round != target {
			t.Fatalf("shard %d is stored at round %d, want %d", e.Shard, e.Round, target)
		}
	}
	for r < foTotalRounds {
		round()
	}
	verifyStreams(t, driver, tenants, d.cfg.Service)
}

// ownerRound reads a shard's round from the stats of the worker the driver's
// placement table names as its owner.
func ownerRound(d *Driver, shard int) (int64, error) {
	client, err := d.clientFor(shard)
	if err != nil {
		return 0, err
	}
	st, err := client.Stats()
	if err != nil {
		return 0, err
	}
	if shard >= len(st.PerShard) || !st.PerShard[shard].Open {
		return 0, fmt.Errorf("shard %d is not open on its advertised owner", shard)
	}
	return st.PerShard[shard].Round, nil
}

// checkpointProxy is a reverse proxy in front of the dispatcher at target
// for workers to register through. It decodes every checkpoint push and
// hands it to hook before forwarding it; a hook that returns true drops the
// push with a 502 instead, as a lost push. hook may block to hold a push in
// flight.
func checkpointProxy(t *testing.T, target string, hook func(push *CheckpointPush) bool) *httptest.Server {
	t.Helper()
	u, err := url.Parse(target)
	if err != nil {
		t.Fatalf("parsing dispatcher URL: %v", err)
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/checkpoint" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if push, err := DecodeCheckpointPush(body); err == nil && hook(push) {
				http.Error(w, `{"error":"injected checkpoint loss"}`, http.StatusBadGateway)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(proxy.Close)
	return proxy
}
