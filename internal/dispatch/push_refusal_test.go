package dispatch

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

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
// refused; otherwise the lease would advertise round 9, and a driver started
// against the fleet would adopt it as the fleet's round.
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

// TestPushFencedDuringFoldIsStale pins the re-check after a fold that ran
// with d.mu released: when the lease moves between foldPush and commitPush —
// the holder is declared dead, another push on the same lease commits first,
// or the fleet merges away the pushed shard — the folded push is refused as
// stale (409), and every lease's round, checkpoint and pool, the placement
// table and every state file stay exactly as they were before the commit.
func TestPushFencedDuringFoldIsStale(t *testing.T) {
	const shard = 1
	cases := []struct {
		name  string
		fence func(t *testing.T, d *Dispatcher, clk *fakeClock, held LeaseInfo)
	}{
		{"holder declared dead", func(t *testing.T, d *Dispatcher, clk *fakeClock, _ LeaseInfo) {
			clk.advance(d.cfg.HeartbeatEvery * time.Duration(d.cfg.MissBudget+1))
			d.sweep(clk.now())
		}},
		{"overtaken by a push on the same lease", func(t *testing.T, d *Dispatcher, _ *fakeClock, held LeaseInfo) {
			if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: shard, Epoch: held.Epoch, Round: 3,
				Data: testBundle(t, shard, 2, 3, "alpha")}); err != nil {
				t.Fatalf("overtaking push: %v", err)
			}
		}},
		{"fleet merged", func(t *testing.T, d *Dispatcher, _ *fakeClock, _ LeaseInfo) {
			if _, err := d.Reshard(1); err != nil {
				t.Fatalf("Reshard(1): %v", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Service.Shards = 2
			cfg.StateDir = t.TempDir()
			d, clk := newTestDispatcher(t, cfg)
			d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})
			held := heldFromGrants(nil, mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1"}))
			for _, l := range held {
				if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: l.Shard, Epoch: l.Epoch, Round: 2,
					Data: testBundle(t, l.Shard, 2, 2, fmt.Sprintf("tenant-%d", l.Shard))}); err != nil {
					t.Fatalf("good push for shard %d: %v", l.Shard, err)
				}
			}

			fp, err := d.foldPush(&CheckpointPush{Worker: "w1", Shard: shard, Epoch: held[shard].Epoch, Round: 3,
				Data: testBundle(t, shard, 2, 3, "alpha", "beta")})
			if err != nil {
				t.Fatalf("foldPush: %v", err)
			}
			tc.fence(t, d, clk, held[shard])

			snapshot := func() ([]lease, map[string][]byte) {
				d.mu.Lock()
				leases := append([]lease(nil), d.leases...)
				d.mu.Unlock()
				files := map[string][]byte{}
				paths, err := filepath.Glob(filepath.Join(cfg.StateDir, "*"))
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range paths {
					if files[p], err = os.ReadFile(p); err != nil {
						t.Fatal(err)
					}
				}
				return leases, files
			}
			leases, files := snapshot()
			placement := d.Placement()
			if err := d.commitPush(fp); !errors.Is(err, errStaleEpoch) {
				t.Fatalf("commit after the fence: %v, want a stale refusal", err)
			}
			afterLeases, afterFiles := snapshot()
			if len(afterLeases) != len(leases) {
				t.Fatalf("refused commit changed the lease table from %d to %d shards", len(leases), len(afterLeases))
			}
			for i, l := range leases {
				after := afterLeases[i]
				if after.round != l.round || !bytes.Equal(after.checkpoint, l.checkpoint) || after.pool != l.pool {
					t.Fatalf("refused commit changed shard %d's lease: round %d→%d, checkpoint %d→%d bytes, pool %p→%p",
						i, l.round, after.round, len(l.checkpoint), len(after.checkpoint), l.pool, after.pool)
				}
				if bytes.Equal(after.checkpoint, fp.folded) {
					t.Fatalf("shard %d's lease holds the refused push's bundle", i)
				}
			}
			if len(afterFiles) != len(files) {
				t.Fatalf("refused commit changed the state dir from %d to %d files", len(files), len(afterFiles))
			}
			for p, data := range files {
				if !bytes.Equal(afterFiles[p], data) {
					t.Fatalf("refused commit rewrote %s", p)
				}
			}
			if got := d.Placement(); fmt.Sprint(got) != fmt.Sprint(placement) {
				t.Fatalf("refused commit changed the placement table: %+v, was %+v", got, placement)
			}
		})
	}
}
