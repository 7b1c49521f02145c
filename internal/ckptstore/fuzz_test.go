package ckptstore

import (
	"bytes"
	"testing"
)

// FuzzDecodeManifest pins that arbitrary bytes never panic the manifest
// decoder, and that anything it accepts re-encodes canonically.
func FuzzDecodeManifest(f *testing.F) {
	seed, err := EncodeManifest(&Manifest{
		Schema: ManifestSchema, Shard: 1, Shards: 4, Round: 9, PlacementEpoch: 1,
		Tenants: []TenantRef{
			{Name: "a", Chunk: FormatChunkID(0xbeef), Chain: 2},
			{Name: "b", Chunk: FormatChunkID(0xc01d), Evicted: true, Epoch: 3, Class: "batch"},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"rrckpt/v2","shard":0,"shards":1,"round":0}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		enc, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest fails to re-encode: %v", err)
		}
		m2, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding fails to decode: %v", err)
		}
		enc2, err := EncodeManifest(m2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatal("manifest canonical encoding is not a fixed point")
		}
	})
}

// FuzzChunkStore pins that the chunk container and delta codec never panic on
// arbitrary bytes, and that a store fed an arbitrary chunk file under a
// committed ID either refuses it or resolves without reading outside the
// store's own committed state.
func FuzzChunkStore(f *testing.F) {
	full, _ := EncodeFull([]byte(`{"round":1}`))
	ops := MakeDelta([]byte(`{"round":1}`), []byte(`{"round":2}`))
	delta, _ := EncodeDelta(Hash64(full), ops)
	f.Add(full, []byte(`{"round":1}`))
	f.Add(delta, ops)
	f.Add([]byte("rrck\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00"), []byte{0x80})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, chunk, ops []byte) {
		c, err := DecodeChunk(chunk)
		if err == nil && c.Kind == KindFull {
			// A decodable full chunk must verify only under its true address.
			if err := VerifyChunk(Hash64(chunk), chunk); err != nil {
				t.Fatalf("chunk rejects its own content address: %v", err)
			}
		}
		// The delta codec must error, never panic, on arbitrary ops.
		if out, err := ApplyDelta(chunk, ops); err == nil {
			if len(out) > MaxChunkLen {
				t.Fatalf("ApplyDelta produced %d bytes past the bound", len(out))
			}
		}
		// An in-memory store must refuse mislabeled chunks and resolve only
		// committed state.
		m := NewMemStore(0)
		if err := m.Add(Hash64(chunk), chunk); err == nil {
			if _, _, err := m.Resolve(Hash64(chunk)); err != nil {
				// A delta whose parent is absent resolves to an error — fine;
				// the invariant is no panic and no fabricated payload.
				_ = err
			}
		}
	})
}

// FuzzDecodeBundle pins that arbitrary bytes never panic the bundle decoder
// and that every chunk in an accepted bundle verifies.
func FuzzDecodeBundle(f *testing.F) {
	manifest, _ := EncodeManifest(&Manifest{Schema: ManifestSchema, Shard: 0, Shards: 1, Round: 1})
	enc1, id1 := EncodeFull([]byte("a"))
	bundle, err := EncodeBundle(manifest, map[uint64][]byte{id1: enc1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bundle)
	f.Add([]byte("rrcb\x01"))
	f.Add([]byte(`{"schema":"rrserve-state/v1"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBundle(data)
		if err != nil {
			return
		}
		for id, chunk := range b.Chunks {
			if err := VerifyChunk(id, chunk); err != nil {
				t.Fatalf("accepted bundle holds unverified chunk: %v", err)
			}
		}
	})
}
