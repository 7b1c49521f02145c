package dispatch

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFleetReshardDeterminism is the dispatch-tier half of the reshard
// tentpole: a live fleet is split 4→8 and later merged 8→3 mid-run through
// the dispatcher — workers rebuild their hosted services from the bumped
// config epoch, the driver re-partitions batches under the new ring — and
// every tenant's final decision stream is still byte-identical to a bare
// stream.Scheduler fed the same arrivals on one node.
func TestFleetReshardDeterminism(t *testing.T) {
	d, _, _, driver, baseURL := startFleet(t)
	svc := d.cfg.Service
	tenants := failoverFixture(t, 42)
	rc := NewClient(baseURL)

	for r := int64(0); r < foTotalRounds; r++ {
		if r == 15 {
			rr, err := rc.Reshard(8)
			if err != nil {
				t.Fatalf("Reshard(8): %v", err)
			}
			if rr.From != 4 || rr.Shards != 8 || rr.Epoch != 1 || rr.Round != 15 {
				t.Fatalf("split response %+v, want 4→8 at epoch 1 round 15", rr)
			}
			if rr.Moved == 0 || rr.MigratedBytes == 0 {
				t.Fatalf("split reported no migration: %+v", rr)
			}
		}
		if r == 25 {
			rr, err := rc.Reshard(3)
			if err != nil {
				t.Fatalf("Reshard(3): %v", err)
			}
			if rr.From != 8 || rr.Shards != 3 || rr.Epoch != 2 || rr.Round != 25 {
				t.Fatalf("merge response %+v, want 8→3 at epoch 2 round 25", rr)
			}
		}
		if err := driver.Round(batchesAt(tenants, r)); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}
	if got := driver.Shards(); got != 3 {
		t.Fatalf("driver tracks %d shards, want 3", got)
	}

	verifyStreams(t, driver, tenants, svc)

	st, err := rc.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Shards != 3 || st.Epoch != 2 {
		t.Fatalf("fleet stats %+v, want 3 shards at config epoch 2", st)
	}
	snap := d.Metrics()
	if n, _ := snap.Counter("dispatch_reshards_total"); n != 2 {
		t.Fatalf("dispatch_reshards_total = %d, want 2", n)
	}
}

// TestFleetReshardPacedMerge merges a live fleet between driver rounds and
// then lets it settle: the workers rebuild and are regranted every merged
// shard before the driver's next round starts. The driver still holds the
// old placement, so it must learn the new shard count before it lands or
// ticks anything; a driver that routes on its stale ring ticks a merged
// shard before the batches of tenants it gained from another old shard land,
// and those tenants' decision streams diverge from the bare scheduler.
func TestFleetReshardPacedMerge(t *testing.T) {
	for _, to := range []int{3, 2} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("4to%d/seed%d", to, seed), func(t *testing.T) {
				t.Parallel()
				d, _, _, driver, baseURL := startFleet(t)
				svc := d.cfg.Service
				tenants := failoverFixture(t, seed)
				rc := NewClient(baseURL)
				const reshardRound = 12
				for r := int64(0); r < foTotalRounds; r++ {
					if r == reshardRound {
						if _, err := rc.Reshard(to); err != nil {
							t.Fatalf("Reshard(%d): %v", to, err)
						}
						waitAssigned(t, d, to)
						// Four heartbeat intervals: every worker has rebuilt
						// and holds its regranted shards before the round.
						time.Sleep(4 * d.cfg.HeartbeatEvery)
					}
					if err := driver.Round(batchesAt(tenants, r)); err != nil {
						t.Fatalf("round %d: %v", r+1, err)
					}
				}
				if got := driver.Shards(); got != to {
					t.Fatalf("driver tracks %d shards, want %d", got, to)
				}
				verifyStreams(t, driver, tenants, svc)
			})
		}
	}
}

// TestFleetReshardFailoverMidMigration pins the worst interleavings of
// reshard and failover: one worker dies the instant the fleet is resized
// (before it ever rebuilds — its migrated shards must come back from the
// transformed checkpoint store alone), and another dies later holding
// migrated shards with freshly landed, never-checkpointed admissions. Both
// are absorbed without a byte of decision divergence.
func TestFleetReshardFailoverMidMigration(t *testing.T) {
	d, w1, w2, driver, baseURL := startFleet(t)
	svc := d.cfg.Service
	tenants := failoverFixture(t, 99)
	rc := NewClient(baseURL)

	for r := int64(0); r < foTotalRounds; r++ {
		batches := batchesAt(tenants, r)
		if r == 12 {
			rr, err := rc.Reshard(7)
			if err != nil {
				t.Fatalf("Reshard(7): %v", err)
			}
			if rr.From != 4 || rr.Shards != 7 || rr.Epoch != 1 {
				t.Fatalf("reshard response %+v, want 4→7 at epoch 1", rr)
			}
			// The failover lands mid-migration: w2 never hears about the new
			// config epoch, so its half of the old fleet is recovered purely
			// from the dispatcher's transformed checkpoints.
			w2.Kill()
			w3, err := StartWorker("w3", baseURL, "127.0.0.1:0", io.Discard)
			if err != nil {
				t.Fatalf("StartWorker w3: %v", err)
			}
			t.Cleanup(w3.Kill)
		}
		if r == 16 {
			// The classic worst case, now on migrated shards: land the round's
			// admissions, then kill the holder before it can tick/checkpoint.
			submitToHolders(t, driver, batches)
			w1.Kill()
			w4, err := StartWorker("w4", baseURL, "127.0.0.1:0", io.Discard)
			if err != nil {
				t.Fatalf("StartWorker w4: %v", err)
			}
			t.Cleanup(w4.Kill)
		}
		if err := driver.Round(batches); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}

	verifyStreams(t, driver, tenants, svc)

	waitAssigned(t, d, 7)
	snap := d.Metrics()
	if n, _ := snap.Counter("dispatch_workers_dead_total"); n < 2 {
		t.Fatalf("dispatch_workers_dead_total = %d after two kills, want >= 2", n)
	}
	if n, _ := snap.Counter("dispatch_reshards_total"); n != 1 {
		t.Fatalf("dispatch_reshards_total = %d, want 1", n)
	}
}

// TestDispatcherRestartAcrossShardCounts pins boot-time resizing: a fleet
// persisted at 4 shards is rebooted as a 6-shard dispatcher over the same
// state dir; the persisted checkpoint set is resharded before the first
// grant, a fresh driver adopts the fleet's round, and the resumed run ends
// with reference-identical decision streams.
func TestDispatcherRestartAcrossShardCounts(t *testing.T) {
	stateDir := t.TempDir()
	cfg := Config{
		Service:        ServiceConfig{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true},
		HeartbeatEvery: 50 * time.Millisecond,
		MissBudget:     2,
		StateDir:       stateDir,
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New dispatcher: %v", err)
	}
	srv := httptest.NewServer(d.Handler())
	w1, err := StartWorker("w1", srv.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker w1: %v", err)
	}
	waitAssigned(t, d, 4)
	driver, err := NewDriver(srv.URL, DriverConfig{Attempts: 400, RetryEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}

	tenants := failoverFixture(t, 11)
	const restartRound = 10
	for r := int64(0); r < restartRound; r++ {
		if err := driver.Round(batchesAt(tenants, r)); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}
	// Everything dies abruptly; only the state dir survives.
	w1.Kill()
	srv.Close()
	d.Close()

	cfg2 := cfg
	cfg2.Service.Shards = 6
	d2, err := New(cfg2)
	if err != nil {
		t.Fatalf("rebooting dispatcher at 6 shards: %v", err)
	}
	t.Cleanup(d2.Close)
	srv2 := httptest.NewServer(d2.Handler())
	t.Cleanup(srv2.Close)
	w2, err := StartWorker("w2", srv2.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker w2: %v", err)
	}
	t.Cleanup(w2.Kill)
	waitAssigned(t, d2, 6)

	driver2, err := NewDriver(srv2.URL, DriverConfig{Attempts: 400, RetryEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver after restart: %v", err)
	}
	if got := driver2.CurrentRound(); got != restartRound {
		t.Fatalf("restarted driver adopted round %d, want %d", got, restartRound)
	}
	if got := driver2.Shards(); got != 6 {
		t.Fatalf("restarted driver tracks %d shards, want 6", got)
	}
	for r := int64(restartRound); r < foTotalRounds; r++ {
		if err := driver2.Round(batchesAt(tenants, r)); err != nil {
			t.Fatalf("resumed round %d: %v", r+1, err)
		}
	}
	verifyStreams(t, driver2, tenants, cfg2.Service)
}

// reshardStateFile writes one persisted shard record, an empty-tenant
// bundle, into a fresh slot pair (both slots removed first): the raw
// material of the boot-resize refusal tests.
func reshardStateFile(t *testing.T, dir string, shard, shards int, epoch, round int64) {
	t.Helper()
	writeStateRecord(t, dir, shard, epoch, testBundle(t, shard, shards, round))
}

// TestDispatcherBootResizeRefusals pins the safety rails of boot-time
// resizing: a partial persisted set, diverging rounds, and disagreeing shard
// counts are all refused — and the valid case loads with every old epoch
// fenced.
func TestDispatcherBootResizeRefusals(t *testing.T) {
	cfg := testConfig()
	cfg.StateDir = t.TempDir()

	reshardStateFile(t, cfg.StateDir, 0, 2, 5, 3)
	clk := &fakeClock{}
	if _, err := newDispatcher(cfg, clk.now); err == nil || !strings.Contains(err.Error(), "full set") {
		t.Fatalf("partial persisted set: err=%v, want a full-set refusal", err)
	}

	reshardStateFile(t, cfg.StateDir, 1, 2, 2, 4)
	if _, err := newDispatcher(cfg, clk.now); err == nil || !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("diverging rounds: err=%v, want a divergence refusal", err)
	}

	reshardStateFile(t, cfg.StateDir, 1, 3, 2, 3)
	if _, err := newDispatcher(cfg, clk.now); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("disagreeing shard counts: err=%v, want a disagreement refusal", err)
	}

	reshardStateFile(t, cfg.StateDir, 1, 2, 2, 3)
	d, err := newDispatcher(cfg, clk.now)
	if err != nil {
		t.Fatalf("valid 2→4 boot resize refused: %v", err)
	}
	defer d.Close()
	p := d.Placement()
	if len(p.Shards) != 4 {
		t.Fatalf("resized placement has %d shards, want 4", len(p.Shards))
	}
	for _, e := range p.Shards {
		if e.Epoch != 6 || e.Round != 3 {
			t.Fatalf("resized shard %d at epoch %d round %d, want epoch 6 (max 5 fenced) round 3", e.Shard, e.Epoch, e.Round)
		}
	}
	// The transformed set was re-persisted under the new count: a second boot
	// at the same count loads it without another transform.
	d2, err := newDispatcher(cfg, clk.now)
	if err != nil {
		t.Fatalf("reboot after resize: %v", err)
	}
	d2.Close()
}

// TestDispatcherReshardRefusals pins the live-reshard preconditions: bad
// counts, a fresh fleet resizing without a transform, partial checkpoint
// sets, and mid-round (diverging stored rounds) attempts.
func TestDispatcherReshardRefusals(t *testing.T) {
	d, _ := newTestDispatcher(t, testConfig()) // 4 shards

	if _, err := d.Reshard(4); err == nil || !strings.Contains(err.Error(), "already has") {
		t.Fatalf("same-count reshard: err=%v", err)
	}
	if _, err := d.Reshard(0); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("zero-shard reshard: err=%v", err)
	}
	if _, err := d.Reshard(MaxShards + 1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized reshard: err=%v", err)
	}

	// A fleet that never checkpointed resizes without a transform.
	rr, err := d.Reshard(2)
	if err != nil {
		t.Fatalf("fresh resize: %v", err)
	}
	if rr.From != 4 || rr.Shards != 2 || rr.Epoch != 1 || rr.Moved != 0 || rr.MigratedBytes != 0 {
		t.Fatalf("fresh resize response %+v, want a transform-free 4→2", rr)
	}

	// A heartbeat on the stale config epoch gets the new config and no
	// grants; echoing the current epoch gets the shards.
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})
	resp := mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1"})
	if resp.Config == nil || resp.ConfigEpoch != 1 || len(resp.Grants) != 0 {
		t.Fatalf("stale-config heartbeat %+v, want config epoch 1 and no grants", resp)
	}
	if resp.Config.Shards != 2 {
		t.Fatalf("stale-config heartbeat carries %d shards, want 2", resp.Config.Shards)
	}
	resp = mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1", ConfigEpoch: 1})
	if resp.Config != nil || len(resp.Grants) != 2 {
		t.Fatalf("current-config heartbeat %+v, want 2 grants", resp)
	}

	// One stored checkpoint of two: the set is incomplete.
	held := heldFromGrants(nil, resp)
	cp := func(shard int, round int64) []byte {
		return testBundle(t, shard, 2, round)
	}
	if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1",
		Shard: 0, Epoch: held[0].Epoch, Round: 1, Data: cp(0, 1)}); err != nil {
		t.Fatalf("storeCheckpoint shard 0: %v", err)
	}
	if _, err := d.Reshard(5); err == nil || !strings.Contains(err.Error(), "every shard") {
		t.Fatalf("partial checkpoint set: err=%v", err)
	}

	// Complete but mid-round: stored rounds diverge.
	if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1",
		Shard: 1, Epoch: held[1].Epoch, Round: 2, Data: cp(1, 2)}); err != nil {
		t.Fatalf("storeCheckpoint shard 1: %v", err)
	}
	if _, err := d.Reshard(5); err == nil || !strings.Contains(err.Error(), "diverge") {
		t.Fatalf("mid-round reshard: err=%v", err)
	}

	// Aligned rounds reshard cleanly and fence every outstanding lease.
	if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1",
		Shard: 0, Epoch: held[0].Epoch, Round: 2, Data: cp(0, 2)}); err != nil {
		t.Fatalf("re-storing shard 0: %v", err)
	}
	rr, err = d.Reshard(5)
	if err != nil {
		t.Fatalf("aligned reshard: %v", err)
	}
	if rr.From != 2 || rr.Shards != 5 || rr.Epoch != 2 || rr.Round != 2 {
		t.Fatalf("aligned reshard response %+v, want 2→5 at config epoch 2 round 2", rr)
	}
	// The old lease epochs are all fenced: a push under the pre-reshard epoch
	// bounces.
	if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1",
		Shard: 0, Epoch: held[0].Epoch, Round: 3, Data: cp(0, 3)}); err == nil {
		t.Fatal("pre-reshard epoch push was accepted after the reshard")
	}
}
