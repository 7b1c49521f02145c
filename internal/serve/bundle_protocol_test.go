package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rrsched/internal/ckptstore"
)

// bundleSink captures OnShardCheckpoint pushes and can be armed to reject
// the next one, modeling a push lost on the wire.
type bundleSink struct {
	mu     sync.Mutex
	pushes [][]byte
	fail   bool
}

func (s *bundleSink) hook(shard int, round int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		s.fail = false
		return fmt.Errorf("injected push loss")
	}
	s.pushes = append(s.pushes, append([]byte(nil), data...))
	return nil
}

func (s *bundleSink) take(t *testing.T) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pushes) == 0 {
		t.Fatal("no checkpoint push captured")
	}
	last := s.pushes[len(s.pushes)-1]
	s.pushes = s.pushes[:0]
	return last
}

// chunkCount decodes a bundle and returns how many chunks ride in it.
func chunkCount(t *testing.T, data []byte) int {
	t.Helper()
	b, err := ckptstore.DecodeBundle(data)
	if err != nil {
		t.Fatalf("DecodeBundle: %v", err)
	}
	return len(b.Chunks)
}

// TestBundleAckProtocol pins the sender side of the incremental checkpoint
// protocol: the first push carries every chunk of its manifest, quiet ticks
// push empty bundles, a dirty tenant rides as exactly one full chunk beside
// the decision log's grown tail, and a failed push resets the acks so the
// next bundle is self-contained again.
func TestBundleAckProtocol(t *testing.T) {
	sink := &bundleSink{}
	svc, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 10,
		RecordDecisions: true, OnShardCheckpoint: sink.hook})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClientPolicy(srv.URL, SingleShot())
	if _, err := svc.OpenShard(0, nil); err != nil {
		t.Fatalf("OpenShard: %v", err)
	}

	submit := func(tenant string, id int64) {
		t.Helper()
		out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: tenant,
			Jobs: []SubmitJob{{ID: id, Color: 0, Delay: 4}}})
		if err != nil || !out.Accepted {
			t.Fatalf("submit %s/%d: out=%+v err=%v", tenant, id, out, err)
		}
	}
	round := int64(0)
	tick := func(n int64) error {
		t.Helper()
		round += n // the shard ticks even when its push then fails
		_, err := svc.TickShard(&RoundRequest{Shard: 0, Shards: 1, Target: round})
		return err
	}

	// Push 1: three fresh tenants, jobs fully resolved — the bundle must be
	// self-contained (a receiver with an empty pool can fold it).
	for _, tn := range []string{"pa", "pb", "pc"} {
		submit(tn, 0)
	}
	if err := tick(6); err != nil {
		t.Fatalf("tick: %v", err)
	}
	first := sink.take(t)
	if n := chunkCount(t, first); n < 3 {
		t.Fatalf("first push carries %d chunks, want the full closure (>= 3)", n)
	}
	if _, _, _, err := FoldBundle(first, nil); err != nil {
		t.Fatalf("first push is not self-contained: %v", err)
	}

	// Push 2: nothing changed — every chunk is acked, so the bundle is all
	// manifest, zero chunks.
	if err := tick(1); err != nil {
		t.Fatalf("quiet tick: %v", err)
	}
	if n := chunkCount(t, sink.take(t)); n != 0 {
		t.Fatalf("quiet push carries %d chunks, want 0", n)
	}

	// Push 3: one dirty tenant — only its new frame rides, as one full
	// chunk, beside the log tail holding its new decisions, and a fresh
	// receiver cannot fold it alone.
	submit("pa", 1)
	if err := tick(6); err != nil {
		t.Fatalf("tick: %v", err)
	}
	dirty := sink.take(t)
	b, err := ckptstore.DecodeBundle(dirty)
	if err != nil {
		t.Fatalf("DecodeBundle: %v", err)
	}
	m, err := ckptstore.DecodeManifest(b.Manifest)
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	tailID, err := m.LogIDs()
	if err != nil || len(tailID) == 0 {
		t.Fatalf("dirty-tenant push names no decision log (%v)", err)
	}
	if _, ok := b.Chunks[tailID[len(tailID)-1]]; len(b.Chunks) != 2 || !ok {
		t.Fatalf("dirty-tenant push carries %d chunks, want 2: the tenant's and the log tail", len(b.Chunks))
	}
	for id, chunk := range b.Chunks {
		if c, err := ckptstore.DecodeChunk(chunk); err != nil || c.Kind != ckptstore.KindFull {
			t.Fatalf("dirty-tenant chunk %016x is not a full chunk (err %v)", id, err)
		}
	}
	if _, _, _, err := FoldBundle(dirty, nil); err == nil {
		t.Fatal("dirty-tenant push folded against an empty pool; it must need the acked chunks")
	}

	// Push 4 is rejected: the shard must surface the failure and forget its
	// acks.
	sink.mu.Lock()
	sink.fail = true
	sink.mu.Unlock()
	submit("pb", 1)
	err = tick(6)
	if err == nil || !strings.Contains(err.Error(), "checkpoint hook") {
		t.Fatalf("tick with failing hook err = %v, want checkpoint hook failure", err)
	}

	// Push 5: after the loss, the very next bundle carries the full closure
	// again — self-contained, at least one chunk per tenant.
	if err := tick(1); err != nil {
		t.Fatalf("tick after loss: %v", err)
	}
	resend := sink.take(t)
	if n := chunkCount(t, resend); n < 3 {
		t.Fatalf("post-loss push carries %d chunks, want the full closure (>= 3)", n)
	}
	if _, _, _, err := FoldBundle(resend, nil); err != nil {
		t.Fatalf("post-loss push is not self-contained: %v", err)
	}
}

// TestBundleFoldMatchesSender pins receiver-side equivalence: a
// dispatcher-style pool fed every successful push folds to a self-contained
// bundle that is byte-identical to the fold of the sender's close handoff,
// is smaller than the raw closure, holds one full chunk per tenant beside
// the decision log's segments, and reopens into a shard whose decision
// streams are byte-identical to the sender's — including tenants that
// stayed clean for several rounds, whose trivial rounds are synthesized.
func TestBundleFoldMatchesSender(t *testing.T) {
	sink := &bundleSink{}
	cfg := Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 10,
		RecordDecisions: true, OnShardCheckpoint: noPush}
	sender := cfg
	sender.OnShardCheckpoint = sink.hook
	svc, _, err := New(sender)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClientPolicy(srv.URL, SingleShot())
	if _, err := svc.OpenShard(0, nil); err != nil {
		t.Fatalf("OpenShard: %v", err)
	}

	// A small multi-tenant run with staggered arrivals, folding every push
	// against the pool the previous fold left, as the dispatcher does.
	var pool *ckptstore.MemStore
	var folded []byte
	var m *ckptstore.Manifest
	tenants := []string{"fa", "fb", "fc", "fd"}
	nextID := map[string]int64{}
	for r := 0; r < 12; r++ {
		for i, tn := range tenants {
			if r%(i+1) == 0 && r < 8 {
				out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: tn,
					Jobs: []SubmitJob{{ID: nextID[tn], Color: int32(i % 4), Delay: 4}}})
				if err != nil || !out.Accepted {
					t.Fatalf("submit %s at %d: out=%+v err=%v", tn, r, out, err)
				}
				nextID[tn]++
			}
		}
		if _, err := svc.TickShard(&RoundRequest{Shard: 0, Shards: 1, Target: int64(r) + 1}); err != nil {
			t.Fatalf("tick %d: %v", r, err)
		}
		folded, m, pool, err = FoldBundle(sink.take(t), pool)
		if err != nil {
			t.Fatalf("FoldBundle at round %d: %v", r, err)
		}
		if m.Round != int64(r+1) {
			t.Fatalf("folded manifest at round %d, want %d", m.Round, r+1)
		}
	}
	b, err := ckptstore.DecodeBundle(folded)
	if err != nil {
		t.Fatalf("DecodeBundle(folded): %v", err)
	}
	if len(m.Log) == 0 || len(b.Chunks) != len(tenants)+len(m.Log) {
		t.Fatalf("folded bundle carries %d chunks, want one per tenant (%d) and the %d log segments", len(b.Chunks), len(tenants), len(m.Log))
	}
	for id, chunk := range b.Chunks {
		if c, err := ckptstore.DecodeChunk(chunk); err != nil || c.Kind != ckptstore.KindFull {
			t.Fatalf("folded chunk %016x is not a full chunk (err %v)", id, err)
		}
	}
	want := map[string][]byte{}
	for _, tn := range tenants {
		if want[tn], err = client.DecisionsRaw(tn); err != nil {
			t.Fatalf("sender DecisionsRaw(%s): %v", tn, err)
		}
	}

	// The close handoff is a self-contained raw closure; folded, it is the
	// very bundle the pushes folded to.
	handoff, err := svc.CloseShard(0)
	if err != nil {
		t.Fatalf("CloseShard: %v", err)
	}
	refold, _, _, err := FoldBundle(handoff, nil)
	if err != nil {
		t.Fatalf("FoldBundle(handoff): %v", err)
	}
	if !bytes.Equal(refold, folded) {
		t.Fatal("folded close handoff differs from the folded push stream")
	}

	// Reopen the folded state elsewhere; every tenant's stream must be
	// byte-identical to the sender's.
	svc2, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New receiver: %v", err)
	}
	defer svc2.Close()
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	client2 := NewClientPolicy(srv2.URL, SingleShot())
	if round, err := svc2.OpenShard(0, folded); err != nil || round != 12 {
		t.Fatalf("reopen from folded bundle: round=%d err=%v", round, err)
	}
	for _, tn := range tenants {
		got, err := client2.DecisionsRaw(tn)
		if err != nil {
			t.Fatalf("receiver DecisionsRaw(%s): %v", tn, err)
		}
		if !bytes.Equal(got, want[tn]) {
			t.Fatalf("tenant %s: folded-bundle streams diverge\nsender:   %.200s\nreceiver: %.200s", tn, want[tn], got)
		}
	}
}
