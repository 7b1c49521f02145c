package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomSubmitRequest builds one valid submit batch from rng: random tenant
// (from a small pool so interning is exercised), dense-ish increasing IDs,
// a bounded color palette with one consistent delay bound per color.
func randomSubmitRequest(rng *rand.Rand) *SubmitRequest {
	tenant := fmt.Sprintf("tenant-%02d", rng.Intn(8))
	colors := 1 + rng.Intn(12)
	delays := make([]int64, colors)
	for c := range delays {
		delays[c] = int64(1) << (2 + rng.Intn(8))
	}
	n := 1 + rng.Intn(64)
	jobs := make([]SubmitJob, n)
	id := int64(rng.Intn(1000))
	for i := range jobs {
		id += 1 + int64(rng.Intn(3))
		c := rng.Intn(colors)
		jobs[i] = SubmitJob{ID: id, Color: int32(c), Delay: delays[c]}
	}
	return &SubmitRequest{Schema: WireSchema, Tenant: tenant, Jobs: jobs}
}

// randomRoundRequest builds one valid round call from rng: up to four
// batches of distinct tenants.
func randomRoundRequest(rng *rand.Rand) *RoundRequest {
	shards := 1 + rng.Intn(8)
	req := &RoundRequest{Schema: WireSchema, Shard: rng.Intn(shards), Shards: shards, Target: rng.Int63n(1 << 40)}
	seen := map[string]bool{}
	for i := rng.Intn(5); i > 0; i-- {
		b := randomSubmitRequest(rng)
		if seen[b.Tenant] {
			continue
		}
		seen[b.Tenant] = true
		req.Batches = append(req.Batches, *b)
	}
	return req
}

// roundAsJSON returns a copy of a decoded round request with the v1 schema
// on the request and every batch, the form the JSON codec carries.
func roundAsJSON(req *RoundRequest) *RoundRequest {
	out := *req
	out.Schema = WireSchema
	out.Batches = append([]SubmitRequest(nil), req.Batches...)
	for i := range out.Batches {
		out.Batches[i].Schema = WireSchema
	}
	return &out
}

// TestBinaryCodecMatchesJSONOracle is the differential battery: for a seeded
// population of valid batches and round calls, the binary round trip must
// land on exactly the canonical JSON bytes the JSON round trip lands on. JSON
// is the oracle — the binary codec is only correct insofar as it is
// indistinguishable from it, field for field. A round frame must also
// re-encode to its own bytes.
func TestBinaryCodecMatchesJSONOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		req := randomSubmitRequest(rng)

		jsonBytes, err := EncodeSubmit(req)
		if err != nil {
			t.Fatalf("case %d: EncodeSubmit: %v", i, err)
		}
		viaJSON, err := DecodeSubmit(jsonBytes)
		if err != nil {
			t.Fatalf("case %d: DecodeSubmit: %v", i, err)
		}
		canonical, err := EncodeSubmit(viaJSON)
		if err != nil {
			t.Fatalf("case %d: re-encoding JSON round trip: %v", i, err)
		}

		frame, err := EncodeSubmitBinary(req)
		if err != nil {
			t.Fatalf("case %d: EncodeSubmitBinary: %v", i, err)
		}
		viaBinary, err := DecodeSubmitBinary(frame)
		if err != nil {
			t.Fatalf("case %d: DecodeSubmitBinary: %v", i, err)
		}
		if viaBinary.Schema != WireSchemaV2 {
			t.Fatalf("case %d: binary decode schema %q, want %q", i, viaBinary.Schema, WireSchemaV2)
		}
		// Normalize the schema to the codec-independent value and ask the
		// oracle: the JSON encoding of the binary round trip must be
		// byte-identical to the canonical JSON bytes.
		viaBinary.Schema = WireSchema
		fromBinary, err := EncodeSubmit(viaBinary)
		if err != nil {
			t.Fatalf("case %d: encoding binary round trip as JSON: %v", i, err)
		}
		if !bytes.Equal(fromBinary, canonical) {
			t.Fatalf("case %d: binary round trip diverges from JSON oracle\nbinary: %s\njson:   %s",
				i, fromBinary, canonical)
		}
	}
	for i := 0; i < 200; i++ {
		req := randomRoundRequest(rng)
		jsonBytes, err := EncodeRound(req)
		if err != nil {
			t.Fatalf("round %d: EncodeRound: %v", i, err)
		}
		viaJSON, err := DecodeRound(jsonBytes)
		if err != nil {
			t.Fatalf("round %d: DecodeRound: %v", i, err)
		}
		canonical, err := EncodeRound(viaJSON)
		if err != nil {
			t.Fatalf("round %d: re-encoding JSON round trip: %v", i, err)
		}
		frame, err := AppendRoundBinary(nil, req)
		if err != nil {
			t.Fatalf("round %d: AppendRoundBinary: %v", i, err)
		}
		viaBinary, err := DecodeRoundBinary(frame)
		if err != nil {
			t.Fatalf("round %d: DecodeRoundBinary: %v", i, err)
		}
		if again, err := AppendRoundBinary(nil, viaBinary); err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("round %d: round frame is not a fixed point (err %v)", i, err)
		}
		fromBinary, err := EncodeRound(roundAsJSON(viaBinary))
		if err != nil {
			t.Fatalf("round %d: encoding binary round trip as JSON: %v", i, err)
		}
		if !bytes.Equal(fromBinary, canonical) {
			t.Fatalf("round %d: binary round trip diverges from JSON oracle\nbinary: %s\njson:   %s",
				i, fromBinary, canonical)
		}
	}
}

// TestBinaryRoundTripFixedPoint pins the binary codec's own fixed point:
// encode → decode → encode reproduces the identical frame bytes.
func TestBinaryRoundTripFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		req := randomSubmitRequest(rng)
		frame, err := EncodeSubmitBinary(req)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		dec, err := DecodeSubmitBinary(frame)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		again, err := EncodeSubmitBinary(dec)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(frame, again) {
			t.Fatalf("case %d: binary encoding is not a fixed point", i)
		}
	}
}

func validSubmitFrame(t testing.TB) []byte {
	t.Helper()
	frame, err := EncodeSubmitBinary(&SubmitRequest{
		Schema: WireSchema,
		Tenant: "edge-tenant",
		Jobs:   []SubmitJob{{ID: 1, Color: 0, Delay: 4}, {ID: 2, Color: 1, Delay: 8}},
	})
	if err != nil {
		t.Fatalf("encoding fixture frame: %v", err)
	}
	return frame
}

// TestSplitFrameEdgeCases drives every malformed-frame class through the
// parser and asserts the typed error taxonomy: truncation, oversize, and
// structural garbage are distinguishable with errors.Is.
func TestSplitFrameEdgeCases(t *testing.T) {
	valid := validSubmitFrame(t)

	oversized := append([]byte(nil), valid...)
	oversized[4], oversized[5], oversized[6], oversized[7] = 0xff, 0xff, 0xff, 0xff

	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'

	badVersion := append([]byte(nil), valid...)
	badVersion[2] = 9

	badType := append([]byte(nil), valid...)
	badType[3] = 99

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFrameTruncated},
		{"short header", valid[:FrameHeaderLen-1], ErrFrameTruncated},
		{"truncated payload", valid[:len(valid)-5], ErrFrameTruncated},
		{"header only", valid[:FrameHeaderLen], ErrFrameTruncated},
		{"oversized declared length", oversized, ErrFrameOversized},
		{"bad magic", badMagic, ErrFrameHeader},
		{"bad version", badVersion, ErrFrameHeader},
		{"unknown frame type", badType, ErrFrameHeader},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xAA), ErrFrameHeader},
	}
	for _, tc := range cases {
		if _, _, err := SplitFrame(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: SplitFrame error %v, want %v", tc.name, err, tc.want)
		}
		if _, err := DecodeSubmitBinary(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: DecodeSubmitBinary error %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDecodeSubmitBinaryPayloadRejects covers payload-level corruption inside
// a structurally valid frame: lying length fields and admission-invariant
// violations must all surface as errors, never panics, and none may carry the
// JSON decoder's error prefix (which would falsely trigger client fallback).
func TestDecodeSubmitBinaryPayloadRejects(t *testing.T) {
	corrupt := func(mutate func(f []byte) []byte) []byte {
		f := validSubmitFrame(t)
		f = mutate(f)
		// Re-patch the header length so the frame parser passes and the
		// payload parser sees the corruption.
		return patchFrameLen(f, 0)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"payload cut inside tenant", corrupt(func(f []byte) []byte { return f[:FrameHeaderLen+3] })},
		{"payload cut before job count", corrupt(func(f []byte) []byte { return f[:FrameHeaderLen+2+len("edge-tenant")] })},
		{"payload cut inside jobs", corrupt(func(f []byte) []byte { return f[:len(f)-1] })},
		{"job count lies high", corrupt(func(f []byte) []byte {
			f[FrameHeaderLen+2+len("edge-tenant")] = 200
			return f
		})},
		{"zero jobs", corrupt(func(f []byte) []byte {
			off := FrameHeaderLen + 2 + len("edge-tenant")
			f[off], f[off+1], f[off+2], f[off+3] = 0, 0, 0, 0
			return f[:off+4]
		})},
	}
	for _, tc := range cases {
		_, err := DecodeSubmitBinary(tc.data)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt frame", tc.name)
			continue
		}
		if bytes.Contains([]byte(err.Error()), []byte("decoding submit request")) {
			t.Errorf("%s: binary decode error %q carries the JSON fallback sentinel", tc.name, err)
		}
	}
}

// TestBinaryDecodeRejectsInvariantViolations re-encodes invariant-breaking
// batches by hand (the encoder refuses them) and asserts the decoder enforces
// the same admission invariants as the JSON path.
func TestBinaryDecodeRejectsInvariantViolations(t *testing.T) {
	encodeRaw := func(tenant string, jobs []SubmitJob) []byte {
		dst := appendFrameHeader(nil, FrameSubmit)
		dst = append(dst, byte(len(tenant)), byte(len(tenant)>>8))
		dst = append(dst, tenant...)
		dst = append(dst, byte(len(jobs)), byte(len(jobs)>>8), 0, 0)
		for _, j := range jobs {
			var tmp [binJobLen]byte
			for k := 0; k < 8; k++ {
				tmp[k] = byte(uint64(j.ID) >> (8 * k))
			}
			for k := 0; k < 4; k++ {
				tmp[8+k] = byte(uint32(j.Color) >> (8 * k))
			}
			for k := 0; k < 8; k++ {
				tmp[12+k] = byte(uint64(j.Delay) >> (8 * k))
			}
			dst = append(dst, tmp[:]...)
		}
		return patchFrameLen(dst, 0)
	}
	cases := []struct {
		name   string
		tenant string
		jobs   []SubmitJob
	}{
		{"empty tenant", "", []SubmitJob{{ID: 1, Delay: 4}}},
		{"ids not increasing", "t", []SubmitJob{{ID: 2, Delay: 4}, {ID: 1, Delay: 4}}},
		{"negative id", "t", []SubmitJob{{ID: -1, Delay: 4}}},
		{"negative color", "t", []SubmitJob{{ID: 1, Color: -2, Delay: 4}}},
		{"zero delay", "t", []SubmitJob{{ID: 1, Delay: 0}}},
		{"inconsistent delay per color", "t", []SubmitJob{{ID: 1, Color: 3, Delay: 4}, {ID: 2, Color: 3, Delay: 8}}},
	}
	for _, tc := range cases {
		if _, err := DecodeSubmitBinary(encodeRaw(tc.tenant, tc.jobs)); err == nil {
			t.Errorf("%s: binary decode accepted an invariant-breaking batch", tc.name)
		}
	}
}

// TestControlFrameRoundTrips covers the small fixed-size frames.
func TestControlFrameRoundTrips(t *testing.T) {
	if r, err := DecodeTickBinary(EncodeTickBinary(7)); err != nil || r != 7 {
		t.Fatalf("tick round trip: rounds=%d err=%v", r, err)
	}
	if round, err := DecodeTickResponseBinary(EncodeTickResponseBinary(1 << 40)); err != nil || round != 1<<40 {
		t.Fatalf("tick response round trip: round=%d err=%v", round, err)
	}
	round := &RoundRequest{Schema: WireSchema, Shard: 3, Shards: 4, Target: 9}
	frame, err := AppendRoundBinary(nil, round)
	if err != nil {
		t.Fatalf("AppendRoundBinary: %v", err)
	}
	if got, err := DecodeRoundBinary(frame); err != nil || !reflect.DeepEqual(roundAsJSON(got), round) {
		t.Fatalf("round call round trip: got %+v err=%v", got, err)
	}
	resp := &SubmitResponse{Schema: WireSchemaV2, Accepted: 42, Round: 99, Backlog: 7}
	got, err := DecodeSubmitResponseBinary(AppendSubmitResponseBinary(nil, resp))
	if err != nil || !reflect.DeepEqual(got, resp) {
		t.Fatalf("submit response round trip: got %+v err=%v", got, err)
	}
}

// TestCheckpointFrameRoundTrip covers the checkpoint frame codec, including
// its validation rejects.
func TestCheckpointFrameRoundTrip(t *testing.T) {
	f := &CheckpointFrame{Worker: "w-1", Shard: 3, Epoch: 2, Round: 17, Final: true, Data: []byte(`{"state":1}`)}
	enc, err := EncodeCheckpointFrame(f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeCheckpointFrame(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip changed the frame:\n got %+v\nwant %+v", got, f)
	}

	if _, err := EncodeCheckpointFrame(&CheckpointFrame{Worker: "", Data: []byte("x")}); err == nil {
		t.Fatal("empty worker accepted")
	}
	if _, err := EncodeCheckpointFrame(&CheckpointFrame{Worker: "w", Data: nil}); err == nil {
		t.Fatal("empty data accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[FrameHeaderLen+2+3+20] = 2 // final flag byte
	if _, err := DecodeCheckpointFrame(bad); !errors.Is(err, ErrFrameHeader) {
		t.Fatalf("bad final flag: err=%v, want ErrFrameHeader", err)
	}
	if _, err := DecodeCheckpointFrame(enc[:len(enc)-2]); !errors.Is(err, ErrFrameTruncated) {
		t.Fatalf("truncated checkpoint: err=%v, want ErrFrameTruncated", err)
	}
}

// TestBinaryDecodeZeroAllocs is the zero-alloc contract: once the tenant is
// interned and the pooled request's job slice has its capacity, decoding a
// binary submit frame performs zero heap allocations — measured, not assumed.
func TestBinaryDecodeZeroAllocs(t *testing.T) {
	frame, err := EncodeSubmitBinary(&SubmitRequest{
		Schema: WireSchema,
		Tenant: "alloc-tenant",
		Jobs: []SubmitJob{
			{ID: 1, Color: 0, Delay: 4}, {ID: 2, Color: 1, Delay: 8},
			{ID: 3, Color: 2, Delay: 16}, {ID: 4, Color: 0, Delay: 4},
		},
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	req := AcquireSubmitRequest()
	defer ReleaseSubmitRequest(req)
	if err := DecodeSubmitBinaryInto(req, frame); err != nil {
		t.Fatalf("warm decode: %v", err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeSubmitBinaryInto(req, frame); err != nil {
			t.Errorf("decode: %v", err)
		}
	}); n != 0 {
		t.Fatalf("steady-state binary decode allocates %.1f times per frame, want 0", n)
	}
}

// TestBinaryEncodeZeroAllocs pins the encode side: appending into a buffer
// with sufficient capacity allocates nothing.
func TestBinaryEncodeZeroAllocs(t *testing.T) {
	req := &SubmitRequest{
		Schema: WireSchema,
		Tenant: "alloc-tenant",
		Jobs:   []SubmitJob{{ID: 1, Color: 0, Delay: 4}, {ID: 2, Color: 1, Delay: 8}},
	}
	buf, err := EncodeSubmitBinary(req)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendSubmitBinary(buf[:0], req)
		if err != nil {
			t.Errorf("append: %v", err)
		}
	}); n != 0 {
		t.Fatalf("steady-state binary encode allocates %.1f times per frame, want 0", n)
	}
}

// TestTenantInterning pins the interner's contract: repeated decodes of the
// same tenant return the identical string header, and the table's bound makes
// a hostile stream of unique names degrade to plain allocation, not growth.
func TestTenantInterning(t *testing.T) {
	ti := internTable{m: map[string]string{}}
	a := ti.get([]byte("tenant-a"))
	b := ti.get([]byte("tenant-a"))
	if a != b {
		t.Fatal("interner returned different strings for the same bytes")
	}
	for i := 0; i < maxInternedTenants+10; i++ {
		ti.get([]byte(fmt.Sprintf("flood-%d", i)))
	}
	if len(ti.m) > maxInternedTenants {
		t.Fatalf("intern table grew to %d entries, bound is %d", len(ti.m), maxInternedTenants)
	}
}

// TestAppendSubmitBinarySchemas: the binary encoder accepts both schema
// strings (the frame version byte is the on-wire schema), rejects others.
func TestAppendSubmitBinarySchemas(t *testing.T) {
	jobs := []SubmitJob{{ID: 1, Delay: 4}}
	for _, schema := range []string{WireSchema, WireSchemaV2} {
		if _, err := EncodeSubmitBinary(&SubmitRequest{Schema: schema, Tenant: "t", Jobs: jobs}); err != nil {
			t.Errorf("schema %q rejected: %v", schema, err)
		}
	}
	if _, err := EncodeSubmitBinary(&SubmitRequest{Schema: "rrserve/v9", Tenant: "t", Jobs: jobs}); err == nil {
		t.Error("unknown schema accepted")
	}
}
