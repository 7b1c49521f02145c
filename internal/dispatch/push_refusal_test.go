package dispatch

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"rrsched/internal/ckptstore"
	"rrsched/internal/serve"
)

// pushRig is a 2-shard dispatcher behind its HTTP handler, with one worker
// holding every shard and a good checkpoint stored for shard 0 at round 2:
// the fixture of the push-refusal tests, each of which sends one push that
// contradicts its lease and checks it is refused without a trace.
type pushRig struct {
	d    *Dispatcher
	url  string
	held []LeaseInfo
}

func newPushRig(t *testing.T) *pushRig {
	t.Helper()
	cfg := testConfig()
	cfg.Service.Shards = 2
	d, _ := newTestDispatcher(t, cfg)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	r := &pushRig{d: d, url: srv.URL, held: registerAndLease(t, NewClient(srv.URL), "w1")}
	if status := r.pushFrame(t, 0, 2, testBundle(t, 0, 2, 2, "alpha")); status != http.StatusOK {
		t.Fatalf("good push answered %d", status)
	}
	return r
}

// pushFrame sends data as shard's checkpoint at round, under the worker's
// lease, as a binary frame; it returns the HTTP status.
func (r *pushRig) pushFrame(t *testing.T, shard int, round int64, data []byte) int {
	t.Helper()
	frame, err := EncodeCheckpointPush(&CheckpointPush{Worker: "w1", Shard: shard, Epoch: r.held[shard].Epoch, Round: round, Data: data})
	if err != nil {
		t.Fatalf("EncodeCheckpointPush: %v", err)
	}
	return r.post(t, serve.ContentTypeBinary, frame)
}

func (r *pushRig) post(t *testing.T, contentType string, body []byte) int {
	t.Helper()
	resp, err := http.Post(r.url+"/v1/checkpoint", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/checkpoint: %v", err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// leaseState is what a refused push must leave untouched.
type leaseState struct {
	checkpoint []byte
	round      int64
	pool       *ckptstore.MemStore
	pooled     int
}

func (r *pushRig) state(shard int) leaseState {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	l := &r.d.leases[shard]
	st := leaseState{checkpoint: l.checkpoint, round: l.round, pool: l.pool}
	if l.pool != nil {
		st.pooled = l.pool.Len()
	}
	return st
}

// refused asserts a push answered 400 (or 415 where allowed) and left
// shard's lease exactly as before, including the round the placement table
// advertises.
func (r *pushRig) refused(t *testing.T, shard int, before leaseState, status int, allowed ...int) {
	t.Helper()
	ok := status == http.StatusBadRequest
	for _, s := range allowed {
		ok = ok || status == s
	}
	if !ok {
		t.Fatalf("push answered %d, want a 4xx refusal", status)
	}
	after := r.state(shard)
	if !bytes.Equal(after.checkpoint, before.checkpoint) || after.round != before.round ||
		after.pool != before.pool || after.pooled != before.pooled {
		t.Fatalf("refused push changed the lease: round %d→%d, checkpoint %d→%d bytes, pool %p(%d)→%p(%d)",
			before.round, after.round, len(before.checkpoint), len(after.checkpoint), before.pool, before.pooled, after.pool, after.pooled)
	}
	if got := r.d.Placement().Shards[shard].Round; got != before.round {
		t.Fatalf("placement advertises round %d for shard %d, stored round is %d", got, shard, before.round)
	}
}

// TestPushRefusesAnotherShardsManifest: a bundle whose manifest names shard 1
// pushed under shard 0's lease is refused.
func TestPushRefusesAnotherShardsManifest(t *testing.T) {
	r := newPushRig(t)
	before := r.state(0)
	r.refused(t, 0, before, r.pushFrame(t, 0, 3, testBundle(t, 1, 2, 3)))
}

// TestPushRefusesForeignShardCount: a bundle cut under 7 shards pushed into a
// 2-shard fleet is refused.
func TestPushRefusesForeignShardCount(t *testing.T) {
	r := newPushRig(t)
	before := r.state(0)
	r.refused(t, 0, before, r.pushFrame(t, 0, 3, testBundle(t, 0, 7, 3, "alpha")))
}

// TestPushRefusesRoundMismatch: a bundle at round 3 pushed as round 9 is
// refused; otherwise the lease would advertise round 9 and
// Driver.confirmStored would treat rounds 4–9 as durable.
func TestPushRefusesRoundMismatch(t *testing.T) {
	r := newPushRig(t)
	before := r.state(0)
	r.refused(t, 0, before, r.pushFrame(t, 0, 9, testBundle(t, 0, 2, 3, "alpha")))
}

// TestPushRefusesNonBundleBody: bytes that are not a bundle are refused
// whether they ride a binary frame (400) or arrive as a JSON push, the
// retired format (415).
func TestPushRefusesNonBundleBody(t *testing.T) {
	r := newPushRig(t)
	before := r.state(0)
	r.refused(t, 0, before, r.pushFrame(t, 0, 3, []byte(`{"not":"a checkpoint"}`)))
	jsonPush := fmt.Sprintf(`{"schema":"rrdispatch/v1","worker":"w1","shard":0,"epoch":%d,"round":3,"data":{"not":"a checkpoint"}}`, r.held[0].Epoch)
	r.refused(t, 0, before, r.post(t, "application/json", []byte(jsonPush)), http.StatusUnsupportedMediaType)
}
