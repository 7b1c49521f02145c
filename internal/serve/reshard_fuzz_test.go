package serve

import (
	"bytes"
	"reflect"
	"testing"

	"rrsched/internal/ckptstore"
)

// FuzzDecodeReshard pins the reshard request decoder on arbitrary bytes:
// never panics, and anything it accepts reaches the encode→decode fixed
// point, matching the contract of every other decoder on the wire.
func FuzzDecodeReshard(f *testing.F) {
	seed := [][]byte{
		[]byte(""),
		[]byte("{}"),
		[]byte("null"),
		[]byte(`{"schema":"rrserve-reshard/v1","shards":8}`),
		[]byte(`{"schema":"rrserve-reshard/v1","shards":0}`),
		[]byte(`{"schema":"rrserve-reshard/v1","shards":4097}`),
		[]byte(`{"schema":"rrserve-reshard/v2","shards":8}`),
		[]byte(`{"shards":8}`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeReshard(data)
		if err != nil {
			return
		}
		enc, err := EncodeReshard(req)
		if err != nil {
			t.Fatalf("decoded reshard request fails to encode: %v\ninput: %q", err, data)
		}
		again, err := DecodeReshard(enc)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v\nencoded: %q", err, enc)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request:\nfirst:  %+v\nsecond: %+v", req, again)
		}
		enc2, err := EncodeReshard(again)
		if err != nil {
			t.Fatalf("re-encoding canonical request: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("canonical reshard bytes are not a fixed point")
		}
	})
}

// FuzzPlacementEpoch feeds arbitrary bytes, decoded as a checkpoint
// manifest, through the one reshard transform (ReshardManifests): it must
// never panic, and whenever it accepts a single-shard manifest it must
// preserve the tenant set and every tenant's chunk reference exactly, route
// every tenant where the target ring says, keep the round, and bump the
// placement epoch by one — on any shard count the fuzzer picks.
func FuzzPlacementEpoch(f *testing.F) {
	f.Add([]byte(""), uint8(0))
	f.Add([]byte("{}"), uint8(3))
	f.Add([]byte(`{"schema":"rrckpt/v4","shard":0,"shards":1,"round":2,"tenants":[{"name":"alpha","chunk":"00000000000000aa"},{"name":"beta","chunk":"00000000000000bb"}]}`), uint8(4))
	f.Add([]byte(`{"schema":"rrckpt/v4","shard":0,"shards":1,"round":9,"placement_epoch":5,"tenants":[{"name":"cold","chunk":"0000000000000001","evicted":true,"epoch":4,"class":"gold"}]}`), uint8(7))
	f.Add([]byte(`{"schema":"rrckpt/v4","shard":0,"shards":2,"round":0}`), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		newShards := 1 + int(n)%8
		in, err := ckptstore.DecodeManifest(data)
		if err != nil {
			return
		}
		out, err := ReshardManifests([]*ckptstore.Manifest{in}, newShards, ckptstore.NewMemStore())
		if err != nil {
			return
		}
		if len(out) != newShards {
			t.Fatalf("transform produced %d shards, want %d", len(out), newShards)
		}
		want := map[string]ckptstore.TenantRef{}
		for _, ref := range in.Tenants {
			want[ref.Name] = ref
		}
		ring := newHashRing(newShards)
		got := map[string]ckptstore.TenantRef{}
		for i, m := range out {
			if m.Shard != i || m.Shards != newShards {
				t.Fatalf("output %d labeled shard %d of %d", i, m.Shard, m.Shards)
			}
			if m.Round != in.Round || m.PlacementEpoch != in.PlacementEpoch+1 {
				t.Fatalf("output %d: round %d epoch %d, want round %d epoch %d",
					i, m.Round, m.PlacementEpoch, in.Round, in.PlacementEpoch+1)
			}
			enc, err := ckptstore.EncodeManifest(m)
			if err != nil {
				t.Fatalf("transform output %d fails to encode: %v", i, err)
			}
			if _, err := ckptstore.DecodeManifest(enc); err != nil {
				t.Fatalf("transform output %d fails to decode: %v", i, err)
			}
			for _, ref := range m.Tenants {
				if _, dup := got[ref.Name]; dup {
					t.Fatalf("tenant %q duplicated across outputs", ref.Name)
				}
				got[ref.Name] = ref
				if ring.ShardOf(ref.Name) != i {
					t.Fatalf("tenant %q on shard %d, ring says %d", ref.Name, i, ring.ShardOf(ref.Name))
				}
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("tenant set changed: in %v, out %v", want, got)
		}
	})
}
