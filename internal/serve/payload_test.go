package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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
	tb.Helper()
	var mu sync.Mutex
	var folded []byte
	pool := ckptstore.NewMemStore(0)
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
		RecordDecisions: true, Hosted: true, OnShardCheckpoint: hook})
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
		if len(b.Chunks) != 1 {
			tb.Fatalf("folded bundle holds %d chunks, want 1", len(b.Chunks))
		}
		for _, enc := range b.Chunks {
			c, err := ckptstore.DecodeChunk(enc)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, c.Body)
		}
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
	enc, err := sh.tenantPayload(tn, len(ti.decisions) > 0)
	if err != nil {
		tb.Fatal(err)
	}
	return tn, enc
}

func testShard(tb testing.TB, resources int) *shard {
	tb.Helper()
	sh, err := newShard(0, Config{Shards: 1, Resources: resources, Delta: 4, Watermark: 64,
		Classes: []TenantClass{{Name: DefaultClass, Weight: 1}, {Name: "gold", Weight: 2}}})
	if err != nil {
		tb.Fatal(err)
	}
	return sh
}

// TestTenantPayloadRoundTrip pins the payload codec on payloads written by a
// hosted shard for fleet- and dense-shaped tenants with recorded decisions:
// decode, build, and re-encode reproduces the bytes, and the rebuilt
// scheduler snapshots like the one the payload was cut from.
func TestTenantPayloadRoundTrip(t *testing.T) {
	for _, ps := range []payloadShape{fleetShape, denseShape} {
		seq := ps.seq(t, 1, 96)
		payloads := servedPayloads(t, ps.resources, seq, 96, map[int64]bool{0: true, 40: true, 95: true})
		sh := testShard(t, ps.resources)
		for i, p := range payloads {
			tn, enc := rebuildPayload(t, sh, p)
			if !bytes.Equal(enc, p) {
				t.Fatalf("%s cut %d: re-encoded payload differs (%d vs %d bytes)", ps.name, i, len(enc), len(p))
			}
			if len(tn.decisions) == 0 && i > 0 {
				t.Fatalf("%s cut %d: payload lost the recorded decisions", ps.name, i)
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
		delays:    map[model.Color]int64{3: 8, 1: 4},
		queued:    []model.Job{{ID: 5, Color: 1, Delay: 4}, {ID: 2, Color: 3, Delay: 8}},
		inflight:  map[int64]jobMeta{0: {Color: 3, Arrival: 0}},
		decisions: []stream.Decision{{Round: 0, Executions: []model.Execution{{Round: 0, Resource: 2, JobID: 9}}, Dropped: []int64{4}}},
	}
	p, err := sh.tenantPayload(tn, true)
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
	if got, want := decisionsJSON(t, back.decisions), decisionsJSON(t, tn.decisions); got != want {
		t.Fatalf("decisions %s, want %s", got, want)
	}
}

func decisionsJSON(t *testing.T, decs []stream.Decision) string {
	t.Helper()
	b, err := json.Marshal(decs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// goldenTenantPayloads pins the payloads a hosted shard writes for one
// dense tenant of the golden dense input (internal/stream's golden test),
// cut every 64 rounds.
var goldenTenantPayloads = map[int64]string{
	1: "be77f9332ecd54ab8bbb6bf713e6db088768d0e7a72efc22e0822d0cda18e998",
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
		{"epoch past the round", mutated(func(ti *tenantImage) { ti.epoch = 30; ti.decisions = nil }), 24, "epoch 30 outside [0, 24]"},
		{"short decision history", mutated(func(ti *tenantImage) { ti.decisions = ti.decisions[1:] }), 24, "decisions, want"},
		{"JSON payload", []byte(`{"round":3,"tenant":{"name":"tenant"}}`), 24, "not a binary tenant payload"},
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

// TestJSONPayloadStateDirRefusesBoot pins that state written by the JSON-payload
// version refuses to boot, naming what it cannot read, instead of getting a
// second read path: a v1 manifest set (resident tenants, or every tenant
// evicted so boot would open no chunk), and a current manifest whose tenant
// chunk holds a JSON payload.
func TestJSONPayloadStateDirRefusesBoot(t *testing.T) {
	cfg, dir := checkpointedStateDir(t)
	setManifestSchema(t, dir, "rrckpt/v1")
	_, _, err := New(cfg)
	if err == nil || !strings.Contains(err.Error(), "rrckpt/v1") || !strings.Contains(err.Error(), "manifest-") {
		t.Fatalf("v1 state dir: New = %v, want a refusal naming the manifest and its schema", err)
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
	setManifestSchema(t, evCfg.StateDir, "rrckpt/v1")
	if _, _, err := New(evCfg); err == nil || !strings.Contains(err.Error(), "rrckpt/v1") {
		t.Fatalf("all-evicted v1 state dir: New = %v, want a schema refusal", err)
	}

	// A current manifest pointing at a JSON tenant payload.
	cfg, dir = checkpointedStateDir(t)
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
	res, err := store.PutFull([]byte(`{"round":2,"tenant":{"name":"` + name + `","epoch":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	m.Tenants[0].Chunk = ckptstore.FormatChunkID(res.Ref.ID)
	writeDiskManifest(t, p, m)
	_, _, err = New(cfg)
	if err == nil || !strings.Contains(err.Error(), "not a binary tenant payload") || !strings.Contains(err.Error(), m.Tenants[0].Chunk) {
		t.Fatalf("JSON tenant chunk: New = %v, want a refusal naming the chunk", err)
	}
}
