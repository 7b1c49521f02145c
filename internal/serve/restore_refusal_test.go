package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rrsched/internal/ckptstore"
	"rrsched/internal/stream"
)

// checkpointedStateDir produces a valid two-shard drain checkpoint to mangle.
func checkpointedStateDir(t *testing.T) (Config, string) {
	t.Helper()
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 64, StateDir: t.TempDir()}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	client := NewClient(srv.URL)
	for i := 0; i < 8; i++ {
		submitJobs(t, client, fmt.Sprintf("tenant-%d", i), SubmitJob{ID: 0, Color: 0, Delay: 4})
	}
	srv.Close()
	if _, err := svc.Tick(2); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	svc.BeginDrain()
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	svc.Close()
	return cfg, cfg.StateDir
}

// TestRestoreRejectsTruncatedFile pins that a checkpoint cut short mid-write
// (torn file, full disk) refuses to restore instead of booting a service with
// silently missing tenants.
func TestRestoreRejectsTruncatedFile(t *testing.T) {
	cfg, dir := checkpointedStateDir(t)
	path := filepath.Join(dir, "manifest-0000.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, _, err := New(cfg); err == nil {
		t.Fatal("restore accepted a truncated checkpoint")
	}
}

// TestRestoreRejectsSchemaSkew pins that a checkpoint from a different format
// version is refused: the schema string is the compatibility contract.
func TestRestoreRejectsSchemaSkew(t *testing.T) {
	cfg, dir := checkpointedStateDir(t)
	path := filepath.Join(dir, "manifest-0000.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	skewed := bytes.Replace(data, []byte(ckptstore.ManifestSchema), []byte("rrckpt/v0"), 1)
	if bytes.Equal(skewed, data) {
		t.Fatal("schema string not found in manifest")
	}
	if err := os.WriteFile(path, skewed, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, _, err = New(cfg)
	if err == nil {
		t.Fatal("restore accepted a schema skew")
	}
	if want := "rrckpt/v0"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("skew error does not name the offending schema: %v", err)
	}
}

// TestOpenShardRejectsBadCheckpoints pins the hosted-mode refusal paths: a
// lease grant carrying a damaged or misrouted checkpoint bundle must fail the
// open (the worker then declines the lease) rather than serve corrupted
// state, and must leave the shard closed and empty.
func TestOpenShardRejectsBadCheckpoints(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 64,
		Hosted: true, RecordDecisions: true}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	// Build a real checkpoint on shard 0: open, admit a tenant that hashes
	// there, tick, close.
	if _, err := svc.OpenShard(0, nil); err != nil {
		t.Fatalf("OpenShard: %v", err)
	}
	ring := newHashRing(cfg.Shards)
	tenant := ""
	for i := 0; tenant == ""; i++ {
		if name := fmt.Sprintf("tenant-%d", i); ring.ShardOf(name) == 0 {
			tenant = name
		}
	}
	if out := submitJobs(t, client, tenant, SubmitJob{ID: 0, Color: 0, Delay: 4}); !out.Accepted {
		t.Fatalf("submit: %+v", out)
	}
	if _, err := svc.TickShard(0, 3); err != nil {
		t.Fatalf("TickShard: %v", err)
	}
	good, err := svc.CloseShard(0)
	if err != nil {
		t.Fatalf("CloseShard: %v", err)
	}

	refused := func(shard int, data []byte, what string) {
		t.Helper()
		if _, err := svc.OpenShard(shard, data); err == nil {
			t.Fatalf("OpenShard accepted %s", what)
		}
		if open := svc.OpenShards(); len(open) != 0 {
			t.Fatalf("refused open of %s left shards %v open", what, open)
		}
	}
	// Garbage bytes, a flat JSON document, and a bundle cut short.
	refused(0, []byte("{torn"), "garbage")
	refused(0, []byte(`{"schema":"rrserve-state/v1","shard":0,"shards":2,"round":3}`), "a flat JSON checkpoint")
	refused(0, good[:len(good)-7], "a truncated bundle")
	// A checkpoint addressed to the other shard (misrouted grant).
	refused(1, good, "a checkpoint for a different shard")
	// Decision logs that cannot be the shard's history as of the cut: each is
	// refused by the restore and by the dispatcher's fold alike.
	for _, c := range []struct {
		what, want string
		mutate     func(m *ckptstore.Manifest, pool *ckptstore.MemStore)
	}{
		{"a log naming a missing chunk", "not in pool", func(m *ckptstore.Manifest, _ *ckptstore.MemStore) {
			m.Log = append(m.Log, ckptstore.FormatChunkID(0xdead))
		}},
		{"a log chunk that is not a record stream", "not a decision log segment", func(m *ckptstore.Manifest, _ *ckptstore.MemStore) {
			m.Log = append(m.Log, m.Tenants[0].Chunk)
		}},
		{"a record at the manifest round", "not below the manifest round", func(m *ckptstore.Manifest, pool *ckptstore.MemStore) {
			l := ckptstore.NewDecLog(pool)
			if err := l.Append(tenant, m.Round, appendDecision(nil, stream.Decision{Dropped: []int64{1}})); err != nil {
				t.Fatal(err)
			}
			log, err := l.Cut()
			if err != nil {
				t.Fatal(err)
			}
			m.Log = append(m.Log, log...)
		}},
	} {
		data := rewriteLog(t, good, c.mutate)
		refused(0, data, c.what)
		if _, _, _, err := FoldBundle(data, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("FoldBundle of %s: %v, want a refusal mentioning %q", c.what, err, c.want)
		}
	}

	// The pristine checkpoint still restores, and double-open is refused.
	round, err := svc.OpenShard(0, good)
	if err != nil {
		t.Fatalf("OpenShard with pristine checkpoint: %v", err)
	}
	if round != 3 {
		t.Fatalf("restored round %d, want 3", round)
	}
	if _, err := svc.OpenShard(0, good); err == nil {
		t.Fatal("OpenShard accepted an already-open shard")
	}
}

// rewriteLog folds a bundle, lets mutate change its manifest and add chunks
// to its pool, and re-bundles the manifest with every chunk it names that
// the pool holds: a well-formed bundle whose log says whatever the mutation
// made it say.
func rewriteLog(t *testing.T, bundle []byte, mutate func(*ckptstore.Manifest, *ckptstore.MemStore)) []byte {
	t.Helper()
	_, m, pool, err := FoldBundle(bundle, nil)
	if err != nil {
		t.Fatalf("FoldBundle: %v", err)
	}
	mutate(m, pool)
	manifest, err := ckptstore.EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := m.Roots()
	if err != nil {
		t.Fatal(err)
	}
	have := map[uint64]bool{}
	for _, id := range roots {
		if pool.Has(id) {
			have[id] = true
		}
	}
	out, err := pool.EncodeBundle(manifest, have)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rewriteTenantChunks folds a bundle, applies mutate to every tenant's
// decoded chunk payload, and re-bundles the re-encoded result with fresh
// content addresses: a well-formed bundle carrying whatever state the
// mutation leaves.
func rewriteTenantChunks(t *testing.T, bundle []byte, mutate func(*tenantImage)) []byte {
	t.Helper()
	folded, m, _, err := FoldBundle(bundle, nil)
	if err != nil {
		t.Fatalf("FoldBundle: %v", err)
	}
	b, err := ckptstore.DecodeBundle(folded)
	if err != nil {
		t.Fatalf("DecodeBundle: %v", err)
	}
	chunks := map[uint64][]byte{}
	for i := range m.Tenants {
		ref := &m.Tenants[i]
		id, err := ref.ChunkID()
		if err != nil {
			t.Fatal(err)
		}
		c, err := ckptstore.DecodeChunk(b.Chunks[id])
		if err != nil {
			t.Fatal(err)
		}
		ti, err := readTenantPayload(c.Body, ref.Name, m.Round)
		if err != nil {
			t.Fatalf("decoding tenant chunk: %v", err)
		}
		mutate(ti)
		enc, newID := ckptstore.EncodeFull(ti.append(nil))
		chunks[newID] = enc
		ref.Chunk = ckptstore.FormatChunkID(newID)
	}
	manifest, err := ckptstore.EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ckptstore.EncodeBundle(manifest, chunks)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
