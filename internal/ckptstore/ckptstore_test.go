package ckptstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestChunkRoundTrip(t *testing.T) {
	payload := []byte(`{"name":"t0","round":42}`)
	enc, id := EncodeFull(payload)
	if err := VerifyChunk(id, enc); err != nil {
		t.Fatalf("VerifyChunk(full): %v", err)
	}
	c, err := DecodeChunk(enc)
	if err != nil {
		t.Fatalf("DecodeChunk(full): %v", err)
	}
	if c.Kind != KindFull || !bytes.Equal(c.Body, payload) {
		t.Fatalf("full chunk round-trip mismatch: kind=%d body=%q", c.Kind, c.Body)
	}
}

func TestChunkDecodeRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("rr"),
		[]byte("nope" + "\x01\x00"),
		[]byte("rrck\x02\x00"),         // bad version
		[]byte("rrck\x01\x07"),         // unknown kind
		[]byte("rrck\x01\x01\x00\x01"), // kind 1, the retired delta
		// A well-formed kind-1 chunk: parent ID, then delta ops.
		[]byte("rrck\x01\x01\x00\x00\x00\x00\x00\x00\xbe\xef\x01\x00\x32"),
	}
	for i, data := range cases {
		if _, err := DecodeChunk(data); err == nil {
			t.Errorf("case %d: DecodeChunk accepted malformed input %q", i, data)
		}
	}
	enc, id := EncodeFull([]byte("x"))
	if err := VerifyChunk(id+1, enc); err == nil {
		t.Error("VerifyChunk accepted a wrong content address")
	}
}

func TestHash64Stable(t *testing.T) {
	// The address must be stable across processes: pin one known vector.
	if got := Hash64([]byte("rrsched")); got != Hash64([]byte("rrsched")) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64([]byte("a")) == Hash64([]byte("b")) {
		t.Fatal("Hash64 collides on trivial inputs")
	}
	// Payloads differing only in the trailing byte must land far apart.
	a := Hash64([]byte(`{"round":1}`))
	b := Hash64([]byte(`{"round":2}`))
	if a == b {
		t.Fatal("Hash64 collides on trailing-byte edit")
	}
}

func TestStorePutDedupe(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	base := []byte(`{"name":"t0","round":0,"queued":["a","b","c"]}`)
	r0, err := s.Put(base, Ref{})
	if err != nil {
		t.Fatal(err)
	}
	if !r0.Wrote {
		t.Fatalf("first put: %+v", r0)
	}
	// Identical bytes dedupe.
	r0b, err := s.Put(base, Ref{})
	if err != nil {
		t.Fatal(err)
	}
	if r0b.Wrote || r0b.Ref != r0.Ref {
		t.Fatalf("dedupe put: %+v", r0b)
	}

	// Every put is a full chunk that resolves alone: the parent argument is
	// inert, and collecting everything but the newest chunk leaves it
	// readable.
	parent := r0.Ref
	for i := 1; i <= 5; i++ {
		payload := []byte(fmt.Sprintf(`{"name":"t0","round":%d,"queued":["a","b","c"]}`, i))
		res, err := s.Put(payload, parent)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.GC([]uint64{res.Ref.ID}); err != nil {
			t.Fatal(err)
		}
		got, depth, err := s.Resolve(res.Ref.ID)
		if err != nil {
			t.Fatalf("resolve after put %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) || depth != 0 {
			t.Fatalf("resolve after put %d: got %q at depth %d, want %q at 0", i, got, depth, payload)
		}
		enc, id := EncodeFull(payload)
		if res.Ref.ID != id || res.Bytes != len(enc) {
			t.Fatalf("put %d: %+v, want the full chunk %016x of %d bytes", i, res, id, len(enc))
		}
		parent = res.Ref
	}
}

func TestStoreGCKeepsClosureRemovesOrphans(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := s.Put([]byte("base-payload-with-some-length"), Ref{})
	r1, _ := s.Put([]byte("base-payload-with-more-length"), r0.Ref)
	orphan, _ := s.Put([]byte("stranded by a crash before the manifest rename"), Ref{})
	// The closure of roots is the roots, and GC lists the directory without
	// reading a chunk: a corrupt live chunk stays for restore to refuse.
	if err := os.WriteFile(s.path(r1.Ref.ID), []byte("rrck\x01\x00corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	roots := []uint64{r0.Ref.ID, r1.Ref.ID}
	if live, err := s.Closure(roots); err != nil || len(live) != 2 || !live[r0.Ref.ID] || !live[r1.Ref.ID] {
		t.Fatalf("closure of two roots: %v, %v", live, err)
	}
	removed, err := s.GC(roots)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("GC removed %d chunks, want 1", removed)
	}
	if s.Has(orphan.Ref.ID) {
		t.Fatal("orphan chunk survived GC")
	}
	if !s.Has(r0.Ref.ID) || !s.Has(r1.Ref.ID) {
		t.Fatal("GC removed live chunks")
	}
	got, _, err := s.Resolve(r0.Ref.ID)
	if err != nil || string(got) != "base-payload-with-some-length" {
		t.Fatalf("resolve after GC: %q, %v", got, err)
	}
	if _, _, err := s.Resolve(r1.Ref.ID); err == nil {
		t.Fatal("Resolve accepted a corrupt live chunk")
	}
}

func TestStoreRejectsCorruptChunk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Put([]byte("payload"), Ref{})
	path := filepath.Join(dir, fmt.Sprintf("%016x.chunk", res.Ref.ID))
	if err := os.WriteFile(path, []byte("rrck\x01\x00corrupted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Resolve(res.Ref.ID); err == nil {
		t.Fatal("Resolve accepted a chunk whose content no longer matches its address")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Schema:         ManifestSchema,
		Shard:          1,
		Shards:         4,
		Round:          17,
		PlacementEpoch: 2,
		Tenants: []TenantRef{
			{Name: "zeta", Chunk: FormatChunkID(0xfeed)},
			{Name: "alpha", Chunk: FormatChunkID(0xbeef)},
			{Name: "cold", Chunk: FormatChunkID(0xc01d), Evicted: true, Epoch: 3, Class: "batch"},
		},
	}
	enc, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 17 || got.PlacementEpoch != 2 || len(got.Tenants) != 3 {
		t.Fatalf("manifest round-trip: %+v", got)
	}
	if got.Tenants[0].Name != "alpha" || got.Tenants[2].Name != "zeta" {
		t.Fatalf("manifest tenants not sorted: %+v", got.Tenants)
	}
	enc2, err := EncodeManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("manifest re-encode is not byte-identical")
	}
	roots, err := got.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 3 {
		t.Fatalf("roots: %v", roots)
	}
}

func TestManifestValidation(t *testing.T) {
	valid := func() *Manifest {
		return &Manifest{
			Schema: ManifestSchema, Shard: 0, Shards: 1, Round: 5,
			Tenants: []TenantRef{{Name: "a", Chunk: FormatChunkID(1)}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"schema", func(m *Manifest) { m.Schema = "rrckpt/v0" }},
		{"shard range", func(m *Manifest) { m.Shard = 1 }},
		{"negative round", func(m *Manifest) { m.Round = -1 }},
		{"empty name", func(m *Manifest) { m.Tenants[0].Name = "" }},
		{"bad chunk hex", func(m *Manifest) { m.Tenants[0].Chunk = "zz" }},
		{"epoch past round", func(m *Manifest) { m.Tenants[0].Evicted = true; m.Tenants[0].Epoch = 9 }},
		{"evicted fields without flag", func(m *Manifest) { m.Tenants[0].Class = "batch" }},
		{"duplicate names", func(m *Manifest) {
			m.Tenants = append(m.Tenants, TenantRef{Name: "a", Chunk: FormatChunkID(2)})
		}},
	}
	for _, c := range cases {
		m := valid()
		c.mut(m)
		if _, err := EncodeManifest(m); err == nil {
			t.Errorf("%s: EncodeManifest accepted an invalid manifest", c.name)
		}
	}
	if _, err := DecodeManifest([]byte(`{`)); err == nil {
		t.Error("DecodeManifest accepted truncated JSON")
	}
}

func TestDecLogAppendReadRotate(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDecLog(dir, 64) // tiny segments to force rotation
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 20; r++ {
		tenant := fmt.Sprintf("t%d", r%3)
		if err := l.Append(tenant, r, []byte(fmt.Sprintf(`{"Round":%d}`, r))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := l.ReadTenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("t1 has %d records, want 7", len(recs))
	}
	for i, rec := range recs {
		want := int64(3*i + 1)
		if rec.Round != want || string(rec.Payload) != fmt.Sprintf(`{"Round":%d}`, want) {
			t.Fatalf("t1 record %d: %+v", i, rec)
		}
	}
	segs, err := l.segments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("64-byte segments never rotated: %v", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and keep appending; history must be intact.
	l2, err := OpenDecLog(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append("t1", 22, []byte(`{"Round":22}`)); err != nil {
		t.Fatal(err)
	}
	recs, err = l2.ReadTenant("t1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 || recs[7].Round != 22 {
		t.Fatalf("after reopen t1 has %d records (last %+v)", len(recs), recs[len(recs)-1])
	}
	if l2.Bytes() <= 0 {
		t.Fatal("Bytes() not tracking log size")
	}
	_ = l2.Close()
}

func TestDecLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDecLog(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append("good", 1, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn record at the tail.
	path := filepath.Join(dir, "seg-00000.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x04, 't', 'o'}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	l2, err := OpenDecLog(dir, 0)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	recs, err := l2.ReadTenant("good")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Round != 1 {
		t.Fatalf("torn-tail recovery lost the committed record: %+v", recs)
	}
	if err := l2.Append("good", 2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	recs, _ = l2.ReadTenant("good")
	if len(recs) != 2 {
		t.Fatalf("append after torn-tail recovery: %+v", recs)
	}
	_ = l2.Close()
}

func TestDecLogTruncateFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDecLog(dir, 48)
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 10; r++ {
		if err := l.Append("t", r, []byte(fmt.Sprintf("p%d", r))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.TruncateFrom(6); err != nil {
		t.Fatal(err)
	}
	recs, err := l.ReadTenant("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("TruncateFrom(6) left %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.Round != int64(i) {
			t.Fatalf("record %d has round %d", i, rec.Round)
		}
	}
	// Appends continue cleanly after a truncate.
	if err := l.Append("t", 6, []byte("again")); err != nil {
		t.Fatal(err)
	}
	recs, _ = l.ReadTenant("t")
	if len(recs) != 7 || string(recs[6].Payload) != "again" {
		t.Fatalf("append after truncate: %+v", recs)
	}
	_ = l.Close()
}

func TestBundleRoundTrip(t *testing.T) {
	manifest, err := EncodeManifest(&Manifest{
		Schema: ManifestSchema, Shard: 0, Shards: 2, Round: 3,
		Tenants: []TenantRef{{Name: "a", Chunk: FormatChunkID(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	encA, idA := EncodeFull([]byte("payload-a"))
	encB, idB := EncodeFull([]byte("payload-b"))
	enc, err := EncodeBundle(manifest, map[uint64][]byte{idA: encA, idB: encB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBundle(manifest); err == nil || !strings.Contains(err.Error(), "not a bundle") {
		t.Fatalf("JSON decoded as a bundle: %v", err)
	}
	b, err := DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Manifest, manifest) || len(b.Chunks) != 2 {
		t.Fatalf("bundle round-trip: %d chunks", len(b.Chunks))
	}
	if !bytes.Equal(b.Chunks[idA], encA) || !bytes.Equal(b.Chunks[idB], encB) {
		t.Fatal("bundle chunk bytes differ")
	}

	// A corrupted chunk is refused at decode.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0xff
	if _, err := DecodeBundle(bad); err == nil {
		t.Fatal("DecodeBundle accepted a corrupted chunk")
	}
	if _, err := DecodeBundle(enc[:len(enc)-4]); err == nil {
		t.Fatal("DecodeBundle accepted a truncated bundle")
	}
}

func TestMemStorePutResolvePrune(t *testing.T) {
	m := NewMemStore()
	r0 := m.Put([]byte("state-zero-with-length"))
	r1 := m.Put([]byte("state-one!-with-length"))
	if !r0.Wrote || !r1.Wrote || m.Len() != 2 {
		t.Fatalf("two puts: %+v %+v, %d chunks pooled", r0, r1, m.Len())
	}
	if again := m.Put([]byte("state-one!-with-length")); again.Wrote || again.Ref != r1.Ref {
		t.Fatalf("dedupe put: %+v", again)
	}
	// Pruning to r1 leaves r1 readable alone.
	m.Prune(map[uint64]bool{r1.Ref.ID: true})
	if m.Len() != 1 {
		t.Fatalf("prune left %d chunks, want 1", m.Len())
	}
	if _, err := m.Resolve(r0.Ref.ID); err == nil {
		t.Fatal("resolved a pruned chunk")
	}
	got, err := m.Resolve(r1.Ref.ID)
	if err != nil || string(got) != "state-one!-with-length" {
		t.Fatalf("resolve after prune: %q, %v", got, err)
	}
	m.Prune(map[uint64]bool{})
	if m.Len() != 0 {
		t.Fatalf("prune left %d chunks", m.Len())
	}
	// Add verifies content addresses.
	enc, id := EncodeFull([]byte("x"))
	if err := m.Add(id+1, enc); err == nil {
		t.Fatal("Add accepted a mislabeled chunk")
	}
	if err := m.Add(id, enc); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(id+2, []byte("rrck\x01\x01\x00\x00\x00\x00\x00\x00\xbe\xef")); err == nil {
		t.Fatal("Add accepted a kind-1 chunk")
	}
	enc2, id2 := EncodeFull([]byte("y"))
	if err := m.Add(id2, enc2); err != nil {
		t.Fatal(err)
	}
	// A clone shares chunks but not the index: pruning or adding on one side
	// leaves the other as it was.
	c := m.Clone()
	c.Prune(map[uint64]bool{})
	if c.Len() != 0 || m.Len() != 2 {
		t.Fatalf("after pruning the clone: clone %d chunks, original %d, want 0 and 2", c.Len(), m.Len())
	}
	if err := c.Add(id, enc); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Resolve(id); err != nil || string(got) != "x" {
		t.Fatal("clone lost an added chunk")
	}
}

// TestMemStoreBundles pins the pool's bundle entry points: AddBundle takes a
// bundle's chunks only through the verifying decoder (a corrupt bundle leaves
// the pool as it was), and EncodeBundle writes the same bytes as the
// verifying EncodeBundle for the same chunks, refusing an ID the pool lacks.
func TestMemStoreBundles(t *testing.T) {
	manifest, err := EncodeManifest(&Manifest{
		Schema: ManifestSchema, Shard: 0, Shards: 1, Round: 1,
		Tenants: []TenantRef{{Name: "a", Chunk: FormatChunkID(1)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	encA, idA := EncodeFull([]byte("payload-a"))
	encB, idB := EncodeFull([]byte("payload-b"))
	chunks := map[uint64][]byte{idA: encA, idB: encB}
	enc, err := EncodeBundle(manifest, chunks)
	if err != nil {
		t.Fatal(err)
	}

	m := NewMemStore()
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0xff
	if _, err := m.AddBundle(bad); err == nil {
		t.Fatal("AddBundle accepted a corrupted chunk")
	}
	if m.Len() != 0 {
		t.Fatalf("refused bundle left %d chunks in the pool", m.Len())
	}
	raw, err := m.AddBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, manifest) || m.Len() != 2 {
		t.Fatalf("AddBundle: manifest equal %v, %d chunks pooled, want 2", bytes.Equal(raw, manifest), m.Len())
	}
	if got, err := m.Resolve(idB); err != nil || string(got) != "payload-b" {
		t.Fatalf("resolve after AddBundle: %q, %v", got, err)
	}

	again, err := m.EncodeBundle(manifest, map[uint64]bool{idA: true, idB: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatal("pool-encoded bundle differs from EncodeBundle of the same chunks")
	}
	if _, err := m.EncodeBundle(manifest, map[uint64]bool{idA + 1: true}); err == nil {
		t.Fatal("EncodeBundle accepted an ID the pool does not hold")
	}
	// The verifying encoder still refuses a mislabeled chunk.
	if _, err := EncodeBundle(manifest, map[uint64][]byte{idA + 1: encA}); err == nil {
		t.Fatal("EncodeBundle accepted a mislabeled chunk")
	}
}
