package dispatch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rrsched/internal/atomicio"
	"rrsched/internal/ckptstore"
	"rrsched/internal/stream"
)

// fakeClock drives the dispatcher's failure detector deterministically.
type fakeClock struct{ ns int64 }

func (c *fakeClock) now() int64              { return c.ns }
func (c *fakeClock) advance(d time.Duration) { c.ns += int64(d) }

func testConfig() Config {
	return Config{
		Service:        ServiceConfig{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 10},
		HeartbeatEvery: time.Hour, // monitor effectively idle; tests call sweep directly
		MissBudget:     3,
	}
}

func newTestDispatcher(t *testing.T, cfg Config) (*Dispatcher, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	d, err := newDispatcher(cfg, clk.now)
	if err != nil {
		t.Fatalf("newDispatcher: %v", err)
	}
	t.Cleanup(d.Close)
	return d, clk
}

func mustHeartbeat(t *testing.T, d *Dispatcher, req *HeartbeatRequest) *HeartbeatResponse {
	t.Helper()
	resp, err := d.heartbeat(req)
	if err != nil {
		t.Fatalf("heartbeat(%s): %v", req.Worker, err)
	}
	return resp
}

// heldFromGrants simulates a worker applying every grant: the next
// heartbeat's held list.
func heldFromGrants(prev []LeaseInfo, resp *HeartbeatResponse) []LeaseInfo {
	byShard := map[int]LeaseInfo{}
	for _, l := range prev {
		byShard[l.Shard] = l
	}
	for _, shard := range resp.Revokes {
		delete(byShard, shard)
	}
	for _, g := range resp.Grants {
		byShard[g.Shard] = LeaseInfo{Shard: g.Shard, Epoch: g.Epoch}
	}
	out := make([]LeaseInfo, 0, len(byShard))
	for shard := 0; shard < MaxShards; shard++ {
		if l, ok := byShard[shard]; ok {
			out = append(out, l)
		}
	}
	return out
}

// TestGrantsAndRebalance pins the lease lifecycle: a lone worker gets every
// shard; a second worker triggers a graceful rebalance — revokes on the
// overloaded side, grants (with the handed-off checkpoints) on the other —
// converging to the fair share.
func TestGrantsAndRebalance(t *testing.T) {
	d, _ := newTestDispatcher(t, testConfig())
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})

	resp := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1"})
	if len(resp.Grants) != 4 || len(resp.Revokes) != 0 {
		t.Fatalf("lone worker: %d grants %d revokes, want 4/0", len(resp.Grants), len(resp.Revokes))
	}
	for _, g := range resp.Grants {
		if len(g.Checkpoint) != 0 {
			t.Fatalf("fresh shard %d granted with a checkpoint", g.Shard)
		}
	}
	w1Held := heldFromGrants(nil, resp)

	// Second worker joins: w1's next heartbeat must revoke down to fair share
	// (2), and w2 gets nothing until the final checkpoints land.
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w2", Addr: "http://h2"})
	resp = mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1", Held: w1Held})
	if len(resp.Revokes) != 2 || len(resp.Grants) != 0 {
		t.Fatalf("rebalance: %d revokes %d grants, want 2/0 (resp %+v)", len(resp.Revokes), len(resp.Grants), resp)
	}
	respW2 := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w2"})
	if len(respW2.Grants) != 0 {
		t.Fatalf("w2 granted revoking shards before the handoff: %+v", respW2)
	}

	// w1 closes the revoked shards and pushes final checkpoints.
	for _, shard := range resp.Revokes {
		var epoch int64
		for _, l := range w1Held {
			if l.Shard == shard {
				epoch = l.Epoch
			}
		}
		if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1",
			Shard: shard, Epoch: epoch, Round: 0, Final: true,
			Data: testBundle(t, shard, 4, 0)}); err != nil {
			t.Fatalf("final checkpoint for shard %d: %v", shard, err)
		}
	}
	w1Held = heldFromGrants(w1Held, resp)

	// Now w2 inherits the freed shards, checkpoints attached.
	respW2 = mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w2"})
	if len(respW2.Grants) != 2 {
		t.Fatalf("w2 grants after handoff: %+v", respW2)
	}
	for _, g := range respW2.Grants {
		if len(g.Checkpoint) == 0 {
			t.Fatalf("handed-off shard %d granted without its checkpoint", g.Shard)
		}
	}

	// Stable state: both workers renew, nothing moves.
	w2Held := heldFromGrants(nil, respW2)
	if resp := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1", Held: w1Held}); len(resp.Grants)+len(resp.Revokes) != 0 {
		t.Fatalf("stable w1 heartbeat moved leases: %+v", resp)
	}
	if resp := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w2", Held: w2Held}); len(resp.Grants)+len(resp.Revokes) != 0 {
		t.Fatalf("stable w2 heartbeat moved leases: %+v", resp)
	}
	st := d.Stats()
	if st.Assigned != 4 || len(st.Workers) != 2 || st.Workers[0].Held != 2 || st.Workers[1].Held != 2 {
		t.Fatalf("stats after rebalance: %+v", st)
	}
}

// TestDeadWorkerFailover pins the failure path: a worker that stops
// heartbeating past the miss budget loses its leases to the survivor, which
// is granted the stored checkpoints under bumped (fencing) epochs.
func TestDeadWorkerFailover(t *testing.T) {
	cfg := testConfig()
	cfg.HeartbeatEvery = time.Second // budget arithmetic under test
	d, clk := newTestDispatcher(t, cfg)
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w2", Addr: "http://h2"})

	r1 := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1"})
	w1Held := heldFromGrants(nil, r1)
	r2 := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w2"})
	w2Held := heldFromGrants(nil, r2)
	if len(w1Held) != 2 || len(w2Held) != 2 {
		t.Fatalf("initial split %d/%d, want 2/2", len(w1Held), len(w2Held))
	}

	// Both push checkpoints at round 7.
	for _, l := range append(append([]LeaseInfo{}, w1Held...), w2Held...) {
		worker := "w1"
		if l.Shard == w2Held[0].Shard || l.Shard == w2Held[1].Shard {
			worker = "w2"
		}
		if err := d.storeCheckpoint(&CheckpointPush{Worker: worker,
			Shard: l.Shard, Epoch: l.Epoch, Round: 7, Data: testBundle(t, l.Shard, 4, 7)}); err != nil {
			t.Fatalf("checkpoint shard %d: %v", l.Shard, err)
		}
	}

	// w1 goes silent. Within the budget nothing happens; past it, w1 is dead
	// and its shards are freed.
	clk.advance(3*time.Second + time.Millisecond)
	mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w2", Held: w2Held})
	d.sweep(clk.now())
	if st := d.Stats(); st.Workers[0].Alive || !st.Workers[1].Alive {
		t.Fatalf("liveness after partial silence: %+v", st.Workers)
	}

	// The survivor's next heartbeat picks the orphans up, with the stored
	// round-7 checkpoints and epochs bumped past the dead worker's.
	resp := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w2", Held: w2Held})
	if len(resp.Grants) != 2 {
		t.Fatalf("failover grants: %+v", resp)
	}
	oldEpochs := map[int]int64{}
	for _, l := range w1Held {
		oldEpochs[l.Shard] = l.Epoch
	}
	for _, g := range resp.Grants {
		if g.Round != 7 || len(g.Checkpoint) == 0 {
			t.Fatalf("failover grant lost the checkpoint: %+v", g)
		}
		if g.Epoch <= oldEpochs[g.Shard] {
			t.Fatalf("failover grant epoch %d does not fence old epoch %d", g.Epoch, oldEpochs[g.Shard])
		}
	}

	// The dead worker's late checkpoint push is fenced.
	err := d.storeCheckpoint(&CheckpointPush{Worker: "w1",
		Shard: w1Held[0].Shard, Epoch: w1Held[0].Epoch, Round: 9, Data: testBundle(t, w1Held[0].Shard, 4, 9)})
	if !errors.Is(err, errStaleEpoch) {
		t.Fatalf("zombie checkpoint: err = %v, want stale epoch", err)
	}

	// And its late heartbeat gets its stale holdings revoked, not renewed.
	late := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1", Held: w1Held})
	if len(late.Revokes) != 2 {
		t.Fatalf("zombie heartbeat: %+v, want its 2 stale holdings revoked", late)
	}

	// Metrics tell the story: a dead worker, two failovers, fenced pushes.
	snap := d.Metrics()
	for name, min := range map[string]int64{
		"dispatch_workers_dead_total": 1,
		"dispatch_failovers_total":    2,
		"dispatch_stale_epochs_total": 1,
		"dispatch_lease_grants_total": 6,
	} {
		if got, ok := snap.Counter(name); !ok || got < min {
			t.Errorf("%s = %d (ok=%v), want >= %d", name, got, ok, min)
		}
	}
}

// TestLostLeaseReconciliation pins the restarted-worker path: a worker that
// re-registers and heartbeats empty-handed gets its old attributions fenced
// and fresh grants instead.
func TestLostLeaseReconciliation(t *testing.T) {
	d, _ := newTestDispatcher(t, testConfig())
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})
	first := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1"})
	firstEpochs := map[int]int64{}
	for _, g := range first.Grants {
		firstEpochs[g.Shard] = g.Epoch
	}

	// The process restarts: re-register, heartbeat with nothing held.
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1-reborn"})
	resp := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1"})
	if len(resp.Grants) != 4 {
		t.Fatalf("reborn worker grants: %+v", resp)
	}
	for _, g := range resp.Grants {
		if g.Epoch <= firstEpochs[g.Shard] {
			t.Fatalf("regrant epoch %d does not fence pre-restart epoch %d", g.Epoch, firstEpochs[g.Shard])
		}
	}
	if p := d.Placement(); p.Shards[0].Addr != "http://h1-reborn" {
		t.Fatalf("placement kept the stale address: %+v", p.Shards[0])
	}
}

// TestHeartbeatUnknownWorker pins that heartbeats require registration.
func TestHeartbeatUnknownWorker(t *testing.T) {
	d, _ := newTestDispatcher(t, testConfig())
	if _, err := d.heartbeat(&HeartbeatRequest{Schema: WireSchema, Worker: "ghost"}); !errors.Is(err, errUnknownWorker) {
		t.Fatalf("unknown worker heartbeat: err = %v", err)
	}
}

// TestStatePersistence pins the dispatcher's own durability: accepted
// checkpoints survive a dispatcher restart via the state dir and seed
// regrants, epochs intact. A shard's state is its two slot files, the newest
// record holding the schema, the lease epoch and the stored bundle verbatim;
// a torn newest slot boots on the older slot's record, the previous push;
// two torn slots, and an rrdispatch-state/v1 file, refuse to load; and a
// state dir removed at run time is made again by the next push.
func TestStatePersistence(t *testing.T) {
	cfg := testConfig()
	cfg.StateDir = filepath.Join(t.TempDir(), "state") // the first push makes it
	d, _ := newTestDispatcher(t, cfg)
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})
	resp := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1"})
	held := heldFromGrants(nil, resp)
	shard := held[1].Shard
	push := func(round int64, bundle []byte) {
		t.Helper()
		if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: shard, Epoch: held[1].Epoch, Round: round, Data: bundle}); err != nil {
			t.Fatalf("storeCheckpoint at round %d: %v", round, err)
		}
	}
	push(12, testBundle(t, shard, 4, 12, "alpha"))
	// A state dir removed at run time is made again by the next push.
	if err := os.RemoveAll(cfg.StateDir); err != nil {
		t.Fatal(err)
	}
	push(12, testBundle(t, shard, 4, 12, "alpha"))
	bundle := testBundle(t, shard, 4, 13, "alpha")
	push(13, bundle)
	d.Close()

	files, err := filepath.Glob(filepath.Join(cfg.StateDir, "*"))
	if err != nil || len(files) != 2 || filepath.Base(files[0]) != "shard-0001.a.state" || filepath.Base(files[1]) != "shard-0001.b.state" {
		t.Fatalf("state dir holds %v (err %v), want exactly shard-0001.a.state and shard-0001.b.state", files, err)
	}
	slots, rec, err := atomicio.OpenSlots(files[0], files[1], 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := slots.Close(); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(stateSchema+"\n"), binary.LittleEndian.AppendUint64(nil, uint64(held[1].Epoch))...)
	if want = append(want, bundle...); !bytes.Equal(rec.Data, want) {
		t.Fatalf("newest record is %d bytes, want the %s header, epoch %d and the %d-byte bundle verbatim",
			len(rec.Data), stateSchema, held[1].Epoch, len(bundle))
	}

	d2, _ := newTestDispatcher(t, cfg)
	d2.register(&RegisterRequest{Schema: WireSchema, Worker: "w2", Addr: "http://h2"})
	resp = mustHeartbeat(t, d2, &HeartbeatRequest{Schema: WireSchema, Worker: "w2"})
	if len(resp.Grants) != 4 {
		t.Fatalf("post-restart grants: %+v", resp)
	}
	for _, g := range resp.Grants {
		if g.Shard != shard {
			continue
		}
		if g.Round != 13 || !bytes.Equal(g.Checkpoint, bundle) {
			t.Fatalf("restart lost the checkpoint: %+v", g)
		}
		if g.Epoch <= held[1].Epoch {
			t.Fatalf("restart regressed the epoch: grant %d vs pre-restart %d", g.Epoch, held[1].Epoch)
		}
	}
	d2.Close()

	// A torn newest slot: the dispatcher boots on the older slot's record,
	// which is the previous push.
	newestBytes, err := os.ReadFile(rec.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rec.Path, newestBytes[:len(newestBytes)-5], 0o644); err != nil {
		t.Fatalf("tearing the newest slot: %v", err)
	}
	d3, _ := newTestDispatcher(t, cfg)
	if got := d3.Placement().Shards[shard].Round; got != 12 {
		t.Fatalf("with the newest slot torn the shard boots at round %d, want the previous push's 12", got)
	}
	d3.Close()
	// Both slots torn: boot is refused, naming the files.
	older := files[0]
	if older == rec.Path {
		older = files[1]
	}
	olderBytes, err := os.ReadFile(older)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(older, olderBytes[:len(olderBytes)-5], 0o644); err != nil {
		t.Fatalf("tearing the older slot: %v", err)
	}
	if _, err := newDispatcher(cfg, (&fakeClock{}).now); err == nil || !strings.Contains(err.Error(), rec.Path) || !strings.Contains(err.Error(), older) {
		t.Fatalf("both slots torn: err = %v, want a refusal naming %s and %s", err, rec.Path, older)
	}
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}

	// An rrdispatch-state/v1 file is refused by name and schema, not read
	// and not skipped.
	legacy := filepath.Join(cfg.StateDir, "shard-0002.json")
	if err := os.WriteFile(legacy, []byte(`{"schema":"rrdispatch-state/v1","shard":2,"epoch":1,"round":3,"data":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = newDispatcher(cfg, (&fakeClock{}).now)
	if err == nil || !strings.Contains(err.Error(), "rrdispatch-state/v1") || !strings.Contains(err.Error(), "shard-0002.json") {
		t.Fatalf("v1 state dir: err = %v, want a refusal naming the file and the schema", err)
	}
}

// writeStateRecord writes one shard's rrdispatch-state/v3 record, lease
// epoch and bundle, into a fresh slot pair in dir (both slots removed
// first), as the dispatcher writes it. It returns the slot file written.
func writeStateRecord(t *testing.T, dir string, shard int, epoch int64, bundle []byte) string {
	t.Helper()
	var paths [2]string
	for k, suffix := range slotSuffixes {
		paths[k] = filepath.Join(dir, fmt.Sprintf("shard-%04d%s", shard, suffix))
		if err := os.Remove(paths[k]); err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
	}
	slots, _, err := atomicio.OpenSlots(paths[0], paths[1], 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := slots.Write([]byte(stateSchema+"\n"), binary.LittleEndian.AppendUint64(nil, uint64(epoch)), bundle); err != nil {
		t.Fatal(err)
	}
	if err := slots.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := slots.Close(); err != nil {
		t.Fatal(err)
	}
	return paths[0]
}

// TestJSONPayloadStateFileRefusesBoot pins that shard state persisted by
// earlier versions refuses to load, naming the file, rather than being read
// through a second path. In a v3 slot record that verifies: a bundle
// carrying an rrckpt/v1 manifest (JSON payloads), an rrckpt/v2 manifest
// (delta chunks) or an rrckpt/v3 manifest (payloads embedding decision
// histories), and under a current manifest a JSON tenant chunk or a
// format-2 tenant chunk (payloads with an inflight section), refused by the
// payload decoder. And an rrdispatch-state/v2 file, refused by its name.
func TestJSONPayloadStateFileRefusesBoot(t *testing.T) {
	jsonPayload, err := json.Marshal(map[string]any{
		"round":  12,
		"tenant": map[string]any{"name": "alpha", "epoch": 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := stream.New(stream.Config{Delta: 4, Resources: 8})
	if err != nil {
		t.Fatal(err)
	}
	img, err := sched.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	format2 := minimalPayload(2, "alpha", 12, img)
	write := func(dir, schema string, payload []byte) string {
		enc, id := ckptstore.EncodeFull(payload)
		manifest, err := json.Marshal(ckptstore.Manifest{Schema: schema, Shard: 1, Shards: 4, Round: 12,
			Tenants: []ckptstore.TenantRef{{Name: "alpha", Chunk: ckptstore.FormatChunkID(id)}}})
		if err != nil {
			t.Fatal(err)
		}
		bundle, err := ckptstore.EncodeBundle(manifest, map[uint64][]byte{id: enc})
		if err != nil {
			t.Fatal(err)
		}
		return writeStateRecord(t, dir, 1, 3, bundle)
	}
	for _, c := range []struct {
		schema  string
		payload []byte
		want    string
	}{
		{"rrckpt/v1", jsonPayload, "rrckpt/v1"},
		{"rrckpt/v2", jsonPayload, "rrckpt/v2"},
		{"rrckpt/v3", jsonPayload, "rrckpt/v3"},
		{ckptstore.ManifestSchema, jsonPayload, "not a binary tenant payload"},
		{ckptstore.ManifestSchema, format2, "format byte 0x02, want 0x03"},
	} {
		cfg := testConfig()
		cfg.StateDir = t.TempDir()
		path := write(cfg.StateDir, c.schema, c.payload)
		_, err := newDispatcher(cfg, (&fakeClock{}).now)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s state: err = %v, want a refusal naming %s and %q", c.schema, err, path, c.want)
		}
	}
	cfg := testConfig()
	cfg.StateDir = t.TempDir()
	data := append([]byte("rrdispatch-state/v2\n"), 3, 0, 0, 0, 0, 0, 0, 0) // lease epoch 3, no bundle
	if err := os.WriteFile(filepath.Join(cfg.StateDir, "shard-0001.state"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = newDispatcher(cfg, (&fakeClock{}).now)
	if err == nil || !strings.Contains(err.Error(), "shard-0001.state") || !strings.Contains(err.Error(), "rrdispatch-state/v2") {
		t.Fatalf("v2 state file: err = %v, want a refusal naming shard-0001.state and rrdispatch-state/v2", err)
	}
}
