package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rrsched/internal/ckptstore"
	"rrsched/internal/model"
	"rrsched/internal/stream"
	"rrsched/internal/varint"
	"rrsched/internal/workload"
)

// payloadShape is a tenant shape of the end-to-end benchmark.
type payloadShape struct {
	name      string
	resources int
	colors    int
	maxExp    uint
}

var (
	fleetShape = payloadShape{"fleet", 8, 8, 5}    // delays 4..32
	denseShape = payloadShape{"dense", 128, 96, 6} // delays 4..64
)

func (ps payloadShape) seq(tb testing.TB, seed, rounds int64) *model.Sequence {
	tb.Helper()
	seq, err := workload.RandomGeneral(workload.RandomConfig{
		Seed: seed, Delta: 4, Colors: ps.colors, Rounds: rounds,
		MinDelayExp: 2, MaxDelayExp: ps.maxExp, Load: 0.6,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return seq.Canonical()
}

// servedPayloads drives one tenant through a hosted one-shard service that
// records decisions, feeding seq's arrivals for rounds rounds, folds every
// checkpoint push the way the dispatcher does, and returns the tenant's
// chunk payload as folded after each round listed in cuts (in round order).
func servedPayloads(tb testing.TB, resources int, seq *model.Sequence, rounds int64, cuts map[int64]bool) [][]byte {
	return hostedPayloads(tb, resources, seq, rounds, cuts, true)
}

// hostedPayloads is servedPayloads with recording on or off.
func hostedPayloads(tb testing.TB, resources int, seq *model.Sequence, rounds int64, cuts map[int64]bool, record bool) [][]byte {
	tb.Helper()
	var mu sync.Mutex
	var folded []byte
	pool := ckptstore.NewMemStore()
	hook := func(_ int, _ int64, data []byte) error {
		mu.Lock()
		defer mu.Unlock()
		f, _, next, err := FoldBundle(data, pool)
		if err != nil {
			return err
		}
		folded, pool = f, next
		return nil
	}
	svc, _, err := New(Config{Shards: 1, Resources: resources, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: record, Hosted: true, OnShardCheckpoint: hook})
	if err != nil {
		tb.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClientPolicy(srv.URL, SingleShot())
	if _, err := svc.OpenShard(0, nil); err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for r := int64(0); r < rounds; r++ {
		var jobs []SubmitJob
		for _, j := range seq.Request(r) {
			jobs = append(jobs, SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay})
		}
		if len(jobs) > 0 {
			res, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "tenant", Jobs: jobs})
			if err != nil || !res.Accepted {
				tb.Fatalf("submit round %d: %+v %v", r, res, err)
			}
		}
		if _, err := svc.TickShard(0, 1); err != nil {
			tb.Fatal(err)
		}
		if !cuts[r] {
			continue
		}
		mu.Lock()
		b, err := ckptstore.DecodeBundle(folded)
		mu.Unlock()
		if err != nil {
			tb.Fatal(err)
		}
		m, err := ckptstore.DecodeManifest(b.Manifest)
		if err != nil {
			tb.Fatal(err)
		}
		if len(m.Tenants) != 1 || len(b.Chunks) != 1+len(m.Log) {
			tb.Fatalf("folded bundle holds %d tenants and %d chunks beside %d log segments, want 1 and 1", len(m.Tenants), len(b.Chunks), len(m.Log))
		}
		id, err := m.Tenants[0].ChunkID()
		if err != nil {
			tb.Fatal(err)
		}
		c, err := ckptstore.DecodeChunk(b.Chunks[id])
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, c.Body)
	}
	return out
}

// payloadName reads the tenant name from a payload header.
func payloadName(data []byte) string {
	r := varint.NewReader(data)
	r.Byte()
	r.Int()
	return r.Str()
}

// rebuildPayload decodes a payload, builds the tenant, and re-encodes it at
// the payload's round: the round trip every payload reader depends on.
func rebuildPayload(tb testing.TB, sh *shard, payload []byte) (*tenant, []byte) {
	tb.Helper()
	ti, err := readTenantPayload(payload, payloadName(payload), math.MaxInt64)
	if err != nil {
		tb.Fatalf("readTenantPayload: %v", err)
	}
	tn, err := sh.buildTenant(ti)
	if err != nil {
		tb.Fatalf("buildTenant: %v", err)
	}
	sh.round = ti.round
	enc, err := sh.tenantPayload(tn)
	if err != nil {
		tb.Fatal(err)
	}
	return tn, enc
}

func testShard(tb testing.TB, resources int) *shard {
	tb.Helper()
	sh, err := newShard(0, Config{Shards: 1, Resources: resources, Delta: 4, Watermark: 64,
		Classes: []TenantClass{{Name: DefaultClass, Weight: 1}, {Name: "gold", Weight: 2}}}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return sh
}

// TestTenantPayloadRoundTrip pins the payload codec on payloads written by a
// hosted shard for fleet- and dense-shaped tenants: decode, build, and
// re-encode reproduces the bytes, and the rebuilt scheduler snapshots like
// the one the payload was cut from. Recording changes no tenant chunk byte:
// the same input pushes identical tenant chunks with recording on and off,
// because history lives in the decision log, not in the payload.
func TestTenantPayloadRoundTrip(t *testing.T) {
	for _, ps := range []payloadShape{fleetShape, denseShape} {
		seq := ps.seq(t, 1, 96)
		cuts := map[int64]bool{0: true, 40: true, 95: true}
		payloads := servedPayloads(t, ps.resources, seq, 96, cuts)
		bare := hostedPayloads(t, ps.resources, seq, 96, cuts, false)
		sh := testShard(t, ps.resources)
		for i, p := range payloads {
			if !bytes.Equal(p, bare[i]) {
				t.Fatalf("%s cut %d: recording changed the tenant chunk (%d vs %d bytes)", ps.name, i, len(p), len(bare[i]))
			}
			_, enc := rebuildPayload(t, sh, p)
			if !bytes.Equal(enc, p) {
				t.Fatalf("%s cut %d: re-encoded payload differs (%d vs %d bytes)", ps.name, i, len(enc), len(p))
			}
		}
	}

	// Queued jobs, inflight jobs and a non-default class survive too.
	sh := testShard(t, 8)
	sched, err := stream.New(stream.Config{Delta: 4, Resources: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Push(0, []model.Job{{ID: 0, Color: 3, Arrival: 0, Delay: 8}}); err != nil {
		t.Fatal(err)
	}
	sh.round = 9
	tn := &tenant{name: "queued", epoch: 8, sched: sched, maxID: 5, class: 1,
		delays:   map[model.Color]int64{3: 8, 1: 4},
		queued:   []model.Job{{ID: 5, Color: 1, Delay: 4}, {ID: 2, Color: 3, Delay: 8}},
		inflight: map[int64]jobMeta{0: {Color: 3, Arrival: 0}},
	}
	p, err := sh.tenantPayload(tn)
	if err != nil {
		t.Fatal(err)
	}
	back, enc := rebuildPayload(t, sh, p)
	if !bytes.Equal(enc, p) {
		t.Fatal("re-encoded payload differs")
	}
	if back.class != 1 || len(back.queued) != 2 || back.queued[0].ID != 2 || len(back.inflight) != 1 || back.maxID != 5 {
		t.Fatalf("rebuilt tenant %+v", back)
	}
}

// goldenTenantPayloads pins the payloads a hosted shard writes for one
// dense tenant of the golden dense input (internal/stream's golden test),
// cut every 64 rounds. Re-pinned for payload format 2 after checking that
// every cut equals its format-1 payload with the decision count and the
// decisions section removed and the format byte set to 2.
var goldenTenantPayloads = map[int64]string{
	1: "dd7f98b0950f214d6b0f1adc65ce6fc2820323c48f9278ce36a3a2bc2c2f5360",
}

func TestGoldenTenantPayloadDigests(t *testing.T) {
	const rounds = 384
	cuts := map[int64]bool{}
	for r := int64(63); r < rounds; r += 64 {
		cuts[r] = true
	}
	for seed, want := range goldenTenantPayloads {
		h := sha256.New()
		for _, p := range servedPayloads(t, denseShape.resources, denseShape.seq(t, seed, rounds), rounds, cuts) {
			h.Write(p)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("seed %d: tenant payload digest %s, pinned %s", seed, got, want)
		}
	}
}

// TestReadTenantPayloadRefusals pins the header checks every reader shares
// and the structural refusals of the one decoder.
func TestReadTenantPayloadRefusals(t *testing.T) {
	payloads := servedPayloads(t, 8, fleetShape.seq(t, 2, 24), 24, map[int64]bool{23: true})
	good := payloads[0]
	ti, err := readTenantPayload(good, "tenant", 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTenantChunk("tenant", good, 24); err != nil {
		t.Fatalf("checkTenantChunk refused a good payload: %v", err)
	}
	mutated := func(mutate func(*tenantImage)) []byte {
		cp := *ti
		mutate(&cp)
		return cp.append(nil)
	}
	for _, c := range []struct {
		name     string
		data     []byte
		maxRound int64
		want     string
	}{
		{"round past the manifest", good, 10, "chunk round 24 outside [0, 10]"},
		{"epoch past the round", mutated(func(ti *tenantImage) { ti.epoch = 30 }), 24, "epoch 30 outside [0, 24]"},
		{"JSON payload", []byte(`{"round":3,"tenant":{"name":"tenant"}}`), 24, "not a binary tenant payload"},
		{"format-1 payload", append([]byte{1}, good[1:]...), 24, "format byte 0x01, want 0x02"},
		{"truncated", good[:len(good)-1], 24, "tenant \"tenant\" chunk"},
		{"trailing bytes", append(append([]byte(nil), good...), 0), 24, "trailing"},
		{"empty", nil, 24, "chunk header"},
	} {
		if _, err := readTenantPayload(c.data, "tenant", c.maxRound); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: readTenantPayload = %v, want mention of %q", c.name, err, c.want)
		}
		if err := checkTenantChunk("tenant", c.data, c.maxRound); err == nil {
			t.Errorf("%s: checkTenantChunk accepted it", c.name)
		}
	}
	if _, err := readTenantPayload(good, "other", 24); err == nil || !strings.Contains(err.Error(), `chunk holds tenant "tenant"`) {
		t.Errorf("name mismatch: %v", err)
	}
	// A stream image that does not parse is refused by the fold's check
	// without building a scheduler, and by buildTenant.
	broken := mutated(func(ti *tenantImage) { ti.stream = ti.stream[:len(ti.stream)/2] })
	if err := checkTenantChunk("tenant", broken, 24); err == nil || !strings.Contains(err.Error(), "binary checkpoint") {
		t.Errorf("torn stream image: checkTenantChunk = %v", err)
	}
	bt, err := readTenantPayload(broken, "tenant", 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := testShard(t, 8).buildTenant(bt); err == nil {
		t.Error("buildTenant accepted a torn stream image")
	}
}

// setManifestSchema rewrites every manifest in a serve state dir to carry
// schema, the way the version with JSON tenant payloads wrote them.
func setManifestSchema(t *testing.T, dir, schema string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("manifest glob: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out := bytes.Replace(data, []byte(`"`+ckptstore.ManifestSchema+`"`), []byte(`"`+schema+`"`), 1)
		if bytes.Equal(out, data) {
			t.Fatalf("%s: schema not found", f)
		}
		if err := os.WriteFile(f, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJSONPayloadStateDirRefusesBoot pins that state written by earlier
// versions refuses to boot, naming what it cannot read, instead of getting a
// second read path: v1 (JSON payloads), v2 (delta chunks) and v3 (payloads
// embedding decision histories) manifest sets, with resident tenants or
// with every tenant evicted so boot would open no chunk; a current manifest
// whose tenant chunk holds a JSON payload or a format-1 payload; and a
// current manifest naming a chunk of the retired delta kind.
func TestJSONPayloadStateDirRefusesBoot(t *testing.T) {
	for _, schema := range []string{"rrckpt/v1", "rrckpt/v2", "rrckpt/v3"} {
		cfg, dir := checkpointedStateDir(t)
		setManifestSchema(t, dir, schema)
		_, _, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), schema) || !strings.Contains(err.Error(), "manifest-") {
			t.Fatalf("%s state dir: New = %v, want a refusal naming the manifest and its schema", schema, err)
		}

		// Every tenant evicted: the manifests list only stubs.
		evCfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 64, StateDir: t.TempDir(),
			RecordDecisions: true, EvictAfter: 2}
		svc, client := newTestService(t, evCfg)
		for _, name := range []string{"cold-a", "cold-b", "cold-c"} {
			submitJobs(t, client, name, SubmitJob{ID: 0, Color: 0, Delay: 4})
		}
		if _, err := svc.Tick(16); err != nil {
			t.Fatal(err)
		}
		if st := svc.Stats(); st.Totals.Tenants != 0 {
			t.Fatalf("%d tenants still resident; the fixture wants all evicted", st.Totals.Tenants)
		}
		svc.BeginDrain()
		if err := svc.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		svc.Close()
		setManifestSchema(t, evCfg.StateDir, schema)
		if _, _, err := New(evCfg); err == nil || !strings.Contains(err.Error(), schema) || !strings.Contains(err.Error(), "manifest-") {
			t.Fatalf("all-evicted %s state dir: New = %v, want a refusal naming the manifest and its schema", schema, err)
		}
	}

	// A current manifest pointing at a JSON tenant payload.
	cfg, dir := checkpointedStateDir(t)
	p := filepath.Join(dir, shardManifestName(0))
	m := readDiskManifest(t, p)
	if len(m.Tenants) == 0 {
		t.Fatal("fixture shard 0 without tenants")
	}
	store, err := ckptstore.Open(filepath.Join(dir, "chunks"), 0)
	if err != nil {
		t.Fatal(err)
	}
	name := m.Tenants[0].Name
	res, err := store.Put([]byte(`{"round":2,"tenant":{"name":"`+name+`","epoch":0}}`), ckptstore.Ref{})
	if err != nil {
		t.Fatal(err)
	}
	m.Tenants[0].Chunk = ckptstore.FormatChunkID(res.Ref.ID)
	writeDiskManifest(t, p, m)
	_, _, err = New(cfg)
	if err == nil || !strings.Contains(err.Error(), "not a binary tenant payload") || !strings.Contains(err.Error(), m.Tenants[0].Chunk) {
		t.Fatalf("JSON tenant chunk: New = %v, want a refusal naming the chunk", err)
	}

	// A current manifest pointing at a format-1 payload: the tenant's payload
	// as the version embedding decision histories wrote it, with an empty
	// history.
	cfg, dir = checkpointedStateDir(t)
	p = filepath.Join(dir, shardManifestName(0))
	m = readDiskManifest(t, p)
	if store, err = ckptstore.Open(filepath.Join(dir, "chunks"), 0); err != nil {
		t.Fatal(err)
	}
	first, err := m.Tenants[0].ChunkID()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := store.ReadChunk(first)
	if err != nil {
		t.Fatal(err)
	}
	hdr := 1 // format byte, then round, name and epoch
	_, n := binary.Varint(payload[hdr:])
	hdr += n
	nameLen, n := binary.Uvarint(payload[hdr:])
	hdr += n + int(nameLen)
	_, n = binary.Varint(payload[hdr:])
	hdr += n
	v1 := append(append([]byte{1}, payload[1:hdr]...), 0) // decision count 0
	v1 = append(v1, payload[hdr:]...)
	if res, err = store.Put(v1, ckptstore.Ref{}); err != nil {
		t.Fatal(err)
	}
	m.Tenants[0].Chunk = ckptstore.FormatChunkID(res.Ref.ID)
	writeDiskManifest(t, p, m)
	_, _, err = New(cfg)
	if err == nil || !strings.Contains(err.Error(), "format byte 0x01") || !strings.Contains(err.Error(), m.Tenants[0].Name) ||
		!strings.Contains(err.Error(), m.Tenants[0].Chunk) {
		t.Fatalf("format-1 tenant chunk: New = %v, want a refusal naming the tenant and the chunk", err)
	}

	// A current manifest pointing at a kind-1 chunk, a delta against the
	// tenant's chunk as the delta-writing version laid it out, stored under
	// its true content address.
	cfg, dir = checkpointedStateDir(t)
	p = filepath.Join(dir, shardManifestName(0))
	m = readDiskManifest(t, p)
	parent, err := m.Tenants[0].ChunkID()
	if err != nil {
		t.Fatal(err)
	}
	delta := []byte("rrck\x01\x01")
	delta = binary.BigEndian.AppendUint64(delta, parent)
	delta = append(delta, 0x01, 0x00, 0x32)
	id := ckptstore.FormatChunkID(ckptstore.Hash64(delta))
	if err := os.WriteFile(filepath.Join(dir, "chunks", id+".chunk"), delta, 0o644); err != nil {
		t.Fatal(err)
	}
	m.Tenants[0].Chunk = id
	writeDiskManifest(t, p, m)
	_, _, err = New(cfg)
	if err == nil || !strings.Contains(err.Error(), m.Tenants[0].Name) || !strings.Contains(err.Error(), id) {
		t.Fatalf("kind-1 chunk: New = %v, want a refusal naming the tenant and the chunk", err)
	}
}
