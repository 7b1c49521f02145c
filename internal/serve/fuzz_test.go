package serve

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"unicode/utf8"

	"rrsched/internal/stream"
)

// FuzzDecodeSubmit pins two properties of the wire decoder on arbitrary
// bytes: it never panics (errors are the only failure mode), and anything it
// accepts survives an encode/decode round trip unchanged — the canonical
// form is a fixed point.
func FuzzDecodeSubmit(f *testing.F) {
	seed := [][]byte{
		[]byte(""),
		[]byte("{}"),
		[]byte("null"),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":0,"color":0,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":0,"color":0,"delay":4},{"id":1,"color":1,"delay":8}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":1,"color":0,"delay":4},{"id":0,"color":0,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v2","tenant":"t","jobs":[{"id":0,"color":0,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"","jobs":[{"id":0,"color":0,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":0,"color":-1,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":0,"color":0,"delay":0}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[]}`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSubmit(data)
		if err != nil {
			return
		}
		// Accepted input must round-trip: encode re-validates, and decoding
		// the canonical bytes reproduces the same request value.
		enc, err := EncodeSubmit(req)
		if err != nil {
			t.Fatalf("decoded request fails to encode: %v\ninput: %q", err, data)
		}
		again, err := DecodeSubmit(enc)
		if err != nil {
			t.Fatalf("canonical encoding fails to decode: %v\nencoded: %q", err, enc)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip changed the request:\nfirst:  %+v\nsecond: %+v", req, again)
		}
	})
}

// jsonFuzzSeeds is the FuzzDecodeSubmit seed list, shared so the binary
// targets start from the same corpus (cross-encoded where the JSON parses).
func jsonFuzzSeeds() [][]byte {
	return [][]byte{
		[]byte(""),
		[]byte("{}"),
		[]byte("null"),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":0,"color":0,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":0,"color":0,"delay":4},{"id":1,"color":1,"delay":8}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":1,"color":0,"delay":4},{"id":0,"color":0,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v2","tenant":"t","jobs":[{"id":0,"color":0,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"","jobs":[{"id":0,"color":0,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":0,"color":-1,"delay":4}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[{"id":0,"color":0,"delay":0}]}`),
		[]byte(`{"schema":"rrserve/v1","tenant":"t","jobs":[]}`),
	}
}

// FuzzDecodeSubmitBinary mirrors FuzzDecodeSubmit for the rrserve/v2 frame
// decoder: arbitrary bytes never panic, and any accepted frame reaches the
// encode→decode fixed point. The corpus is the JSON seed list cross-encoded
// into frames where it parses, plus malformed-frame seeds.
func FuzzDecodeSubmitBinary(f *testing.F) {
	for _, s := range jsonFuzzSeeds() {
		if req, err := DecodeSubmit(s); err == nil {
			if frame, err := EncodeSubmitBinary(req); err == nil {
				f.Add(frame)
			}
		}
		f.Add(s) // raw JSON bytes double as malformed-frame seeds
	}
	if frame, err := EncodeSubmitBinary(&SubmitRequest{
		Schema: WireSchema, Tenant: "fuzz", Jobs: []SubmitJob{{ID: 1, Delay: 4}, {ID: 2, Color: 1, Delay: 8}},
	}); err == nil {
		f.Add(frame)
		f.Add(frame[:len(frame)-3])                     // truncated payload
		f.Add(frame[:FrameHeaderLen])                   // header only
		f.Add(append(append([]byte(nil), frame...), 0)) // trailing byte
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSubmitBinary(data)
		if err != nil {
			return
		}
		enc, err := EncodeSubmitBinary(req)
		if err != nil {
			t.Fatalf("decoded frame fails to encode: %v\ninput: %q", err, data)
		}
		again, err := DecodeSubmitBinary(enc)
		if err != nil {
			t.Fatalf("canonical frame fails to decode: %v", err)
		}
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("binary round trip changed the request:\nfirst:  %+v\nsecond: %+v", req, again)
		}
		// The canonical frame is a byte-level fixed point too.
		enc2, err := EncodeSubmitBinary(again)
		if err != nil {
			t.Fatalf("re-encoding canonical frame: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical frame bytes are not a fixed point")
		}
	})
}

// FuzzBinaryRoundTrip fuzzes JSON submit bodies and holds the two codecs to
// each other: any batch the JSON decoder accepts must cross-encode into a
// binary frame, decode back, and re-encode as JSON to the exact canonical
// bytes of the JSON round trip — the differential property on arbitrary
// fuzzer-shaped input rather than a fixed seed population.
func FuzzBinaryRoundTrip(f *testing.F) {
	for _, s := range jsonFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSubmit(data)
		if err != nil {
			return
		}
		canonical, err := EncodeSubmit(req)
		if err != nil {
			t.Fatalf("JSON round trip fails to re-encode: %v", err)
		}
		frame, err := EncodeSubmitBinary(req)
		if err != nil {
			t.Fatalf("JSON-accepted batch fails binary encode: %v\ninput: %q", err, data)
		}
		viaBinary, err := DecodeSubmitBinary(frame)
		if err != nil {
			t.Fatalf("binary frame of a valid batch fails to decode: %v", err)
		}
		viaBinary.Schema = WireSchema
		fromBinary, err := EncodeSubmit(viaBinary)
		if err != nil {
			t.Fatalf("binary round trip fails JSON encode: %v", err)
		}
		if !bytes.Equal(fromBinary, canonical) {
			t.Fatalf("binary round trip diverges from JSON oracle:\nbinary: %s\njson:   %s", fromBinary, canonical)
		}
	})
}

// FuzzDecodeRoundBinary holds the round frame decoder, where a worker decodes
// many tenants' batches from one request, to three properties on arbitrary
// bytes: it never panics, a frame it accepts re-encodes to exactly its own
// bytes, and the request it decodes to is the one its JSON twin decodes to.
// JSON carries only UTF-8 names, so the twin is checked for frames whose
// tenants are UTF-8 (the binary codecs take any bytes but control bytes).
func FuzzDecodeRoundBinary(f *testing.F) {
	// Small seeds: the fuzzer minimizes every input that finds new coverage,
	// and minimizing a large frame stalls a short run.
	one := []SubmitJob{{ID: 1, Delay: 4}}
	for _, req := range []*RoundRequest{
		{Schema: WireSchema, Shard: 0, Shards: 1, Target: 0},
		{Schema: WireSchema, Shard: 1, Shards: 4, Target: 7, Batches: []SubmitRequest{{Schema: WireSchema, Tenant: "a", Jobs: one}}},
		{Schema: WireSchema, Shard: 3, Shards: 4, Target: 1 << 40, Batches: []SubmitRequest{
			{Schema: WireSchema, Tenant: "a", Jobs: []SubmitJob{{ID: 1, Delay: 4}, {ID: 2, Color: 1, Delay: 8}}},
			{Schema: WireSchema, Tenant: "b", Jobs: one},
		}},
	} {
		frame, err := AppendRoundBinary(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])                     // truncated
		f.Add(append(append([]byte(nil), frame...), 0)) // trailing byte
	}
	f.Add(validSubmitFrame(f)) // a submit frame is not a round frame
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRoundBinary(data)
		if err != nil {
			return
		}
		enc, err := AppendRoundBinary(nil, req)
		if err != nil {
			t.Fatalf("accepted frame fails to encode: %v", err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted frame re-encodes to other bytes:\nframe: %x\nagain: %x", data, enc)
		}
		for _, b := range req.Batches {
			if !utf8.ValidString(b.Tenant) {
				return
			}
		}
		twin := roundAsJSON(req)
		js, err := EncodeRound(twin)
		if err != nil {
			t.Fatalf("accepted frame's JSON twin fails to encode: %v", err)
		}
		viaJSON, err := DecodeRound(js)
		if err != nil {
			t.Fatalf("JSON twin fails to decode: %v\n%s", err, js)
		}
		if !reflect.DeepEqual(viaJSON, twin) {
			t.Fatalf("JSON twin decodes to another request:\nbinary: %+v\njson:   %+v", twin, viaJSON)
		}
	})
}

// FuzzTenantChunk drives the one tenant payload decoder with arbitrary
// bytes, under the name the payload's own header claims. Property: it never
// panics, the fold's structural check refuses what cannot be built for want
// of a parsable stream image, and a payload it
// accepts and builds into a tenant re-encodes to bytes that decode, build
// and re-encode to themselves, with an equal scheduler Snapshot.
func FuzzTenantChunk(f *testing.F) {
	// Small seeds: the fuzzer minimizes every input that finds new coverage,
	// and minimizing a multi-KB dense payload stalls a short run.
	for _, p := range servedPayloads(f, fleetShape.resources, fleetShape.seq(f, 3, 8), 8, map[int64]bool{1: true, 7: true}) {
		f.Add(p)
		f.Add(p[:len(p)/2])
		f.Add(p[:len(p)-1])
		f.Add(append(append([]byte(nil), p...), 0))
		f.Add(append(append([]byte{}, p[len(p)/3:]...), p[:len(p)/3]...))
		f.Add(format2Payload(f, p))
	}
	f.Add([]byte(`{"round":3,"tenant":{"name":"tenant","epoch":0}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		name := payloadName(data)
		ti, err := readTenantPayload(data, name, math.MaxInt64)
		if err != nil {
			return
		}
		sh := testShard(t, 8)
		tn, err := sh.buildTenant(ti)
		if stream.CheckBinary(ti.stream) != nil {
			if err == nil {
				t.Fatal("built a tenant from a stream image that does not parse")
			}
			if checkTenantChunk(name, data, math.MaxInt64) == nil {
				t.Fatal("the fold accepted a stream image that does not parse")
			}
			return
		}
		if err != nil {
			return
		}
		sh.round = ti.round
		enc, err := sh.tenantPayload(tn)
		if err != nil {
			t.Fatalf("built tenant does not re-encode: %v", err)
		}
		back, enc2 := rebuildPayload(t, sh, enc)
		if !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding is not a fixed point")
		}
		a, err := tn.sched.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.sched.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("rebuilt tenant's scheduler snapshots differently")
		}
	})
}
