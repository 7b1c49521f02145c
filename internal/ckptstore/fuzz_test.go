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
			{Name: "a", Chunk: FormatChunkID(0xbeef)},
			{Name: "b", Chunk: FormatChunkID(0xc01d), Evicted: true, Epoch: 3, Class: "batch"},
		},
		Log: []string{FormatChunkID(0x5e6), FormatChunkID(0x7a1)},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schema":"rrckpt/v4","shard":0,"shards":1,"round":0}`))
	f.Add([]byte(`{"schema":"rrckpt/v4","shard":0,"shards":1,"round":3,"log":["00000000000005e6"]}`))
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

// FuzzChunkStore pins that the chunk container never panics on arbitrary
// bytes, refuses every kind but a full chunk (kind 1 was the retired delta),
// and that an in-memory store fed an arbitrary chunk under its content
// address either refuses it or resolves it to exactly the chunk's body.
func FuzzChunkStore(f *testing.F) {
	full, _ := EncodeFull([]byte(`{"round":1}`))
	f.Add(full)
	// A delta chunk as the retired kind 1 wrote it: parent ID, then ops.
	f.Add([]byte("rrck\x01\x01\x00\x00\x00\x00\x00\x00\xbe\xef\x01\x00\x32"))
	f.Add([]byte("rrck\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, chunk []byte) {
		c, err := DecodeChunk(chunk)
		if err == nil {
			if c.Kind != KindFull {
				t.Fatalf("decoded a chunk of kind %d", c.Kind)
			}
			// A decodable chunk must verify under its true address.
			if err := VerifyChunk(Hash64(chunk), chunk); err != nil {
				t.Fatalf("chunk rejects its own content address: %v", err)
			}
		}
		m := NewMemStore()
		if addErr := m.Add(Hash64(chunk), chunk); (addErr == nil) != (err == nil) {
			t.Fatalf("pool admission %v disagrees with decode %v", addErr, err)
		}
		if err != nil {
			return
		}
		got, err := m.ReadChunk(Hash64(chunk))
		if err != nil || !bytes.Equal(got, c.Body) {
			t.Fatalf("pooled chunk resolves to %q (%v), want its body %q", got, err, c.Body)
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

// FuzzDecisionLogSegment pins that the log segment decoder never panics on
// arbitrary bytes, and that a segment it accepts re-encodes to the same
// bytes: segments reach the dispatcher inside worker pushes.
func FuzzDecisionLogSegment(f *testing.F) {
	l := NewDecLog(NewMemStore())
	if err := l.Append("tenant-000", 3, []byte{1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	if err := l.Append("b", 1<<40, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(l.tail)
	f.Add(segmentHeader(nil))
	f.Add([]byte("rrdl\x01\x01a\x80\x00\x00")) // an overlong round
	f.Add([]byte("rrdl\x01\x00\x00\x00"))      // an empty tenant name
	f.Add([]byte{2, 0, 1})                     // a tenant payload
	f.Fuzz(func(t *testing.T, seg []byte) {
		out := segmentHeader(nil)
		if err := ReadSegment(seg, func(tenant string, round int64, payload []byte) error {
			out = appendRecord(out, tenant, round, payload)
			return nil
		}); err != nil {
			return
		}
		if !bytes.Equal(out, seg) {
			t.Fatalf("accepted segment re-encodes to %x, was %x", out, seg)
		}
	})
}
