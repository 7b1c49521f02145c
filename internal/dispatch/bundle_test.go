package dispatch

import (
	"io"
	"testing"
	"time"

	"rrsched/internal/ckptstore"
	"rrsched/internal/stream"
	"rrsched/internal/varint"
)

// TestBundleFailoverPreservesDecisionStreams re-runs the fleet failover
// property with an eye on the checkpoint store: a worker dies right after
// landing a round's admissions, its shards regrant from the stored bundles,
// and every tenant's final decision stream is still byte-identical to a bare
// scheduler. Afterwards the lease table must show the bundle path engaged —
// every shard's chunk pool kept the last push's closure, and every stored
// checkpoint is a folded bundle: one full chunk per tenant, beside the
// decision log's segments.
func TestBundleFailoverPreservesDecisionStreams(t *testing.T) {
	d, w1, _, driver, baseURL := startFleet(t)
	svc := d.cfg.Service
	tenants := failoverFixture(t, 77)

	const killRound = 6
	for r := int64(0); r < foTotalRounds; r++ {
		batches := batchesAt(tenants, r)
		if r == killRound {
			// Land this round's batches, then kill a holder before the tick:
			// its shards hold admissions newer than any pushed bundle.
			for _, b := range batches {
				if out, err := driver.Submit(b.Tenant, b.Jobs); err != nil || !out.Landed() {
					t.Fatalf("pre-kill submit %s: out=%+v err=%v", b.Tenant, out, err)
				}
			}
			w1.Kill()
			w3, err := StartWorker("w3", baseURL, "127.0.0.1:0", io.Discard)
			if err != nil {
				t.Fatalf("respawning worker: %v", err)
			}
			t.Cleanup(w3.Kill)
		}
		if err := driver.Round(batches); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}

	verifyStreams(t, driver, tenants, svc)

	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.leases {
		l := &d.leases[i]
		if l.pool == nil || l.pool.Len() == 0 {
			t.Errorf("shard %d: lease pool holds no chunks", i)
		}
		b, err := ckptstore.DecodeBundle(l.checkpoint)
		if err != nil {
			t.Errorf("shard %d: stored checkpoint is not a bundle: %v", i, err)
			continue
		}
		m, err := ckptstore.DecodeManifest(b.Manifest)
		if err != nil {
			t.Errorf("shard %d: stored manifest: %v", i, err)
			continue
		}
		if m.Round != l.round || len(m.Log) == 0 || len(b.Chunks) != len(m.Tenants)+len(m.Log) {
			t.Errorf("shard %d: stored bundle at round %d with %d chunks for %d tenants and %d log segments, lease round %d",
				i, m.Round, len(b.Chunks), len(m.Tenants), len(m.Log), l.round)
		}
		for _, ref := range m.Tenants {
			id, err := ref.ChunkID()
			if err != nil {
				t.Fatal(err)
			}
			if c, err := ckptstore.DecodeChunk(b.Chunks[id]); err != nil || c.Kind != ckptstore.KindFull {
				t.Errorf("shard %d tenant %s: stored chunk is not folded (err %v)", i, ref.Name, err)
			}
		}
	}
}

// TestBundlePushRejectionKeepsLastGood pins the loss model at the
// dispatcher boundary: a bundle whose references the lease pool cannot
// resolve is rejected wholesale (the push fails, the stored checkpoint and
// pool stay at the last good state), and a subsequent full-closure push
// heals the shard.
func TestBundlePushRejectionKeepsLastGood(t *testing.T) {
	d, err := New(Config{
		Service:        ServiceConfig{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true},
		HeartbeatEvery: time.Hour, // no live workers; exercise storeCheckpoint directly
	})
	if err != nil {
		t.Fatalf("New dispatcher: %v", err)
	}
	defer d.Close()

	// Build two bundles over the same tenant chunk: one carrying its full
	// chunk closure, one referencing the chunk without carrying it (what a
	// sender whose acks outlived a receiver restart would push).
	full := makeBundle(t, true)
	orphan := makeBundle(t, false)

	d.mu.Lock()
	d.leases[0].worker = "w1"
	d.mu.Unlock()

	// An orphan bundle against an empty pool must be rejected and leave no
	// trace: no checkpoint stored, no pool.
	push := func(data []byte) error {
		return d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: 0, Epoch: 0, Round: 3, Data: data})
	}
	if err := push(orphan); err == nil {
		t.Fatal("orphan bundle accepted against an empty pool")
	}
	d.mu.Lock()
	if d.leases[0].checkpoint != nil || d.leases[0].pool != nil {
		t.Fatalf("rejected push stored a checkpoint or a pool: %.120q", d.leases[0].checkpoint)
	}
	d.mu.Unlock()

	// The full closure heals the shard; the orphan reference then resolves
	// from the pool the first push left.
	if err := push(full); err != nil {
		t.Fatalf("full-closure push rejected: %v", err)
	}
	d.mu.Lock()
	stored := d.leases[0].checkpoint
	d.mu.Unlock()
	if _, err := ckptstore.DecodeBundle(stored); err != nil {
		t.Fatalf("stored checkpoint after full push is not a bundle: %v", err)
	}
	if err := push(orphan); err != nil {
		t.Fatalf("orphan push after full closure rejected: %v", err)
	}
}

// TestClosedRoundReadsManifest pins where a graceful handoff's round comes
// from: the close bundle's own manifest, which the dispatcher checks the push
// against. Bytes that are not a bundle are an error, never round 0.
func TestClosedRoundReadsManifest(t *testing.T) {
	if round, err := closedRound(testBundle(t, 2, 4, 37, "alpha")); err != nil || round != 37 {
		t.Fatalf("closedRound = %d, %v; want 37", round, err)
	}
	for _, bad := range [][]byte{nil, []byte(`{"round":5}`), testBundle(t, 0, 1, 5)[:12]} {
		if round, err := closedRound(bad); err == nil {
			t.Fatalf("closedRound(%q) = %d, want an error", bad, round)
		}
	}
}

// makeBundle builds an encoded bundle holding one tenant chunk the fold
// accepts; withChunks controls whether the chunk rides in the bundle or is
// only referenced by the manifest.
func makeBundle(t *testing.T, withChunks bool) []byte {
	t.Helper()
	m, chunks := bundleParts(t, 0, 1, 3, "tn-0")
	if !withChunks {
		chunks = nil
	}
	return encodeBundle(t, m, chunks)
}

// testBundle builds a self-contained, folded checkpoint bundle for shard of
// shards at round: one minimal full chunk per named tenant, the shape a
// dispatcher stores.
func testBundle(t *testing.T, shard, shards int, round int64, tenants ...string) []byte {
	t.Helper()
	m, chunks := bundleParts(t, shard, shards, round, tenants...)
	return encodeBundle(t, m, chunks)
}

// bundleParts builds a manifest and its full chunks; each tenant's chunk
// payload is a minimal tenant payload cut at round: a tenant born at round
// (epoch = round) with no jobs and a fresh scheduler's image, written field
// by field in the payload layout.
func bundleParts(t *testing.T, shard, shards int, round int64, tenants ...string) (*ckptstore.Manifest, map[uint64][]byte) {
	t.Helper()
	m := &ckptstore.Manifest{Schema: ckptstore.ManifestSchema, Shard: shard, Shards: shards, Round: round}
	sched, err := stream.New(stream.Config{Delta: 4, Resources: 8})
	if err != nil {
		t.Fatal(err)
	}
	img, err := sched.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	chunks := map[uint64][]byte{}
	for _, name := range tenants {
		payload := []byte{2} // the payload format byte
		payload = varint.AppendInt(payload, round)
		payload = varint.AppendString(payload, name)
		payload = varint.AppendInt(payload, round) // epoch
		payload = varint.AppendInt(payload, -1)    // max ID
		payload = varint.AppendString(payload, "") // default class
		payload = varint.AppendLen(payload, 0)     // delays
		payload = varint.AppendLen(payload, 0)     // queued
		payload = varint.AppendLen(payload, 0)     // inflight
		payload = varint.AppendBytes(payload, img)
		enc, id := ckptstore.EncodeFull(payload)
		chunks[id] = enc
		m.Tenants = append(m.Tenants, ckptstore.TenantRef{Name: name, Chunk: ckptstore.FormatChunkID(id)})
	}
	return m, chunks
}

func encodeBundle(t *testing.T, m *ckptstore.Manifest, chunks map[uint64][]byte) []byte {
	t.Helper()
	manifest, err := ckptstore.EncodeManifest(m)
	if err != nil {
		t.Fatalf("EncodeManifest: %v", err)
	}
	bundle, err := ckptstore.EncodeBundle(manifest, chunks)
	if err != nil {
		t.Fatalf("EncodeBundle: %v", err)
	}
	return bundle
}
