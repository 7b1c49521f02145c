package ckptstore

import (
	"bytes"
	"encoding/json"
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
		Log: []string{FormatChunkID(0x5e6), FormatChunkID(0x7a1)},
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
	if len(roots) != 5 || roots[3] != 0x5e6 || roots[4] != 0x7a1 {
		t.Fatalf("roots: %v, want the three tenant chunks and the two log segments", roots)
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
		{"bad log hex", func(m *Manifest) { m.Log = []string{FormatChunkID(3), "0x3"} }},
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

// TestManifestLengthBound pins EncodeManifest and DecodeManifest to one
// bound: a one-tenant manifest whose name makes its encoding exactly
// MaxManifestLen bytes encodes and decodes, and with one more name byte both
// refuse it, so no cut can commit a manifest that its next boot refuses.
func TestManifestLengthBound(t *testing.T) {
	withName := func(n int) *Manifest {
		return &Manifest{
			Schema: ManifestSchema, Shards: 1,
			Tenants: []TenantRef{{Name: strings.Repeat("t", n), Chunk: FormatChunkID(1)}},
		}
	}
	small, err := EncodeManifest(withName(1))
	if err != nil {
		t.Fatal(err)
	}
	fit := MaxManifestLen - (len(small) - 1)
	enc, err := EncodeManifest(withName(fit))
	if err != nil {
		t.Fatalf("a manifest of exactly the bound: %v", err)
	}
	if len(enc) != MaxManifestLen {
		t.Fatalf("manifest with a %d-byte name encodes to %d bytes, want %d", fit, len(enc), MaxManifestLen)
	}
	if _, err := DecodeManifest(enc); err != nil {
		t.Fatalf("DecodeManifest refused a manifest EncodeManifest wrote: %v", err)
	}
	enc = nil // release 64 MiB before encoding a larger manifest
	over := withName(fit + 1)
	if enc, err := EncodeManifest(over); err == nil {
		t.Fatalf("EncodeManifest wrote %d bytes, over the %d-byte bound", len(enc), MaxManifestLen)
	}
	raw, err := json.MarshalIndent(over, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(raw); err == nil {
		t.Fatalf("DecodeManifest read %d bytes, over the %d-byte bound", len(raw), MaxManifestLen)
	}
}

// TestDecLogAppendReadRotate pins the chunk-backed decision log: appends
// seal the tail into segment chunks at SegmentBytes, a cut writes the tail as
// one more chunk, and reopening the cut's segment list replays every record
// in order, reopens the tail and keeps appending into it.
func TestDecLogAppendReadRotate(t *testing.T) {
	pool := NewMemStore()
	l := NewDecLog(pool)
	payload := bytes.Repeat([]byte{7}, 100)
	var want []string
	for r := int64(0); len(l.segs) < 2; r++ {
		tenant := fmt.Sprintf("t%d", r%3)
		if err := l.Append(tenant, r, payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf("%s@%d", tenant, r))
	}
	walk := func(l *DecLog) []string {
		t.Helper()
		var got []string
		if err := l.Walk(func(tenant string, round int64, p []byte) error {
			if !bytes.Equal(p, payload) {
				t.Fatalf("%s@%d payload %q", tenant, round, p)
			}
			got = append(got, fmt.Sprintf("%s@%d", tenant, round))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := walk(l); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("walk read %d records, want %d", len(got), len(want))
	}
	if err := l.Append("t0", int64(len(want)), payload); err != nil {
		t.Fatal(err)
	}
	want = append(want, fmt.Sprintf("t0@%d", len(want)))
	log, err := l.Cut()
	if err != nil {
		t.Fatal(err)
	}
	ids, err := (&Manifest{Log: log}).LogIDs()
	if err != nil || len(ids) != 3 || ids[0] != l.segs[0] || ids[1] != l.segs[1] {
		t.Fatalf("cut names %v (%v), want the two sealed segments and the tail", log, err)
	}
	if l.Bytes() <= 2*SegmentBytes-2*int64(segmentHeaderLen) {
		t.Fatalf("Bytes() = %d does not count the sealed and open records", l.Bytes())
	}

	// Reopen the cut: the sealed segments stay sealed, the tail reopens.
	l2, err := OpenDecLog(pool, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(l2.segs) != 2 || l2.Bytes() != l.Bytes() {
		t.Fatalf("reopened %d sealed segments holding %d bytes, want 2 and %d", len(l2.segs), l2.Bytes(), l.Bytes())
	}
	if got := walk(l2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("reopened log reads other records")
	}
	if err := l2.Append("t1", 999, payload); err != nil {
		t.Fatal(err)
	}
	log2, err := l2.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if len(log2) != 3 || log2[0] != log[0] || log2[1] != log[1] || log2[2] == log[2] {
		t.Fatalf("cut after reopen names %v, want the same sealed segments and a grown tail (was %v)", log2, log)
	}

	// A missing segment, a chunk that is not a record stream, and a record
	// the caller's check refuses all refuse the reopen.
	if _, err := OpenDecLog(NewMemStore(), ids, nil); err == nil {
		t.Fatal("reopened a log whose segments are missing")
	}
	other := pool.Put([]byte{2, 0, 1})
	if _, err := OpenDecLog(pool, append(ids[:2:2], other.Ref.ID), nil); err == nil || !strings.Contains(err.Error(), "not a decision log segment") {
		t.Fatalf("reopened a log naming a tenant payload: %v", err)
	}
	refuse := func(tenant string, round int64, _ []byte) error {
		if round >= 5 {
			return fmt.Errorf("round %d too late", round)
		}
		return nil
	}
	if _, err := OpenDecLog(pool, ids, refuse); err == nil || !strings.Contains(err.Error(), "too late") {
		t.Fatalf("check did not refuse the reopen: %v", err)
	}

	// An empty log cuts to nothing and writes no chunk.
	before := pool.Len()
	if log, err := NewDecLog(pool).Cut(); err != nil || len(log) != 0 || pool.Len() != before {
		t.Fatalf("empty log cut %v (%v), pool %d → %d chunks", log, err, before, pool.Len())
	}
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
	if _, err := m.ReadChunk(r0.Ref.ID); err == nil {
		t.Fatal("resolved a pruned chunk")
	}
	got, err := m.ReadChunk(r1.Ref.ID)
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
	if got, err := c.ReadChunk(id); err != nil || string(got) != "x" {
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
	if got, err := m.ReadChunk(idB); err != nil || string(got) != "payload-b" {
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
