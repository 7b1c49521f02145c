package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rrsched/internal/model"
	"rrsched/internal/stream"
)

// sparseTenant is one tenant of the paging fixture: two short bursts
// separated by an idle gap long enough for the tenant to quiesce and page out
// under the battery's EvictAfter, so the second burst exercises fault-in.
type sparseTenant struct {
	name  string
	epoch int64 // global round of the first burst (= the tenant's epoch)
}

const (
	sparseGap   = 16 // idle rounds between a tenant's two bursts
	sparseDelay = 4  // delay bound of every job in the fixture
	sparseTotal = 44 // driven rounds: past the last burst plus its drop tail
	sparseEvict = 4  // EvictAfter used by the battery
)

func sparseFixture() []sparseTenant {
	return []sparseTenant{
		{name: "pg-a", epoch: 0},
		{name: "pg-b", epoch: 1},
		{name: "pg-c", epoch: 2},
		{name: "pg-d", epoch: 3},
		{name: "pg-e", epoch: 5},
		{name: "pg-f", epoch: 9},
	}
}

// sparseArrivals returns the jobs the tenant submits at global round r: three
// jobs per burst round, two rounds per burst, IDs strictly increasing across
// the tenant's life as the wire contract demands.
func sparseArrivals(tn sparseTenant, r int64) []SubmitJob {
	var wave int64
	switch {
	case r == tn.epoch || r == tn.epoch+1:
		wave = r - tn.epoch
	case r == tn.epoch+sparseGap || r == tn.epoch+sparseGap+1:
		wave = 2 + (r - tn.epoch - sparseGap)
	default:
		return nil
	}
	jobs := make([]SubmitJob, 3)
	for k := range jobs {
		jobs[k] = SubmitJob{ID: wave*3 + int64(k), Color: int32(k), Delay: sparseDelay}
	}
	return jobs
}

// sparseReference replays one tenant's arrivals through a bare
// stream.Scheduler at tenant-local rounds — the same contract
// referenceDecisions pins for the generated fixture.
func sparseReference(t *testing.T, tn sparseTenant, totalRounds int64, cfg Config) []stream.Decision {
	t.Helper()
	sched, err := stream.New(stream.Config{Delta: cfg.Delta, Resources: cfg.Resources})
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	var out []stream.Decision
	for local := int64(0); local < totalRounds-tn.epoch; local++ {
		wire := sparseArrivals(tn, tn.epoch+local)
		jobs := make([]model.Job, len(wire))
		for i, w := range wire {
			jobs[i] = model.Job{ID: w.ID, Color: model.Color(w.Color), Arrival: local, Delay: w.Delay}
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		dec, err := sched.Push(local, jobs)
		if err != nil {
			t.Fatalf("reference push for %s at local %d: %v", tn.name, local, err)
		}
		out = append(out, dec)
	}
	return out
}

// driveSparseFixture submits each round's due bursts and ticks once, calling
// hook (when set) before the round's submissions.
func driveSparseFixture(t *testing.T, client *Client, tenants []sparseTenant, totalRounds int64, hook func(r int64)) {
	t.Helper()
	driveSparseRuns(t, client, tenants, totalRounds, nil, hook)
}

// driveSparseRuns is driveSparseFixture with the rounds ticked as runs says
// (see tickRuns); the hook runs at every round the service rests at.
func driveSparseRuns(t *testing.T, client *Client, tenants []sparseTenant, totalRounds int64, runs *tickRuns, hook func(r int64)) {
	t.Helper()
	for r := int64(0); r < totalRounds; r++ {
		submits := false
		for _, tn := range tenants {
			submits = submits || len(sparseArrivals(tn, r)) > 0
		}
		if runs.owe(t, client, r, submits) {
			continue
		}
		if hook != nil {
			hook(r)
		}
		for _, tn := range tenants {
			jobs := sparseArrivals(tn, r)
			if len(jobs) == 0 {
				continue
			}
			out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: tn.name, Jobs: jobs})
			if err != nil || !out.Accepted {
				t.Fatalf("submit %s at round %d: out=%+v err=%v", tn.name, r, out, err)
			}
		}
		if _, err := client.Tick(1); err != nil {
			t.Fatalf("tick at round %d: %v", r, err)
		}
	}
	runs.flush(t, client)
}

// checkSparseDecisions byte-compares every fixture tenant's /v1/decisions
// against the bare-scheduler reference.
func checkSparseDecisions(t *testing.T, client *Client, tenants []sparseTenant, totalRounds int64, cfg Config, finalShards int, finalEpoch int64) {
	t.Helper()
	ring := newHashRing(finalShards)
	for _, tn := range tenants {
		got, err := client.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("DecisionsRaw(%s): %v", tn.name, err)
		}
		want, err := MarshalResponse(&DecisionsResponse{
			Schema:         DecisionsSchema,
			Tenant:         tn.name,
			Shard:          ring.ShardOf(tn.name),
			Epoch:          tn.epoch,
			Round:          totalRounds,
			PlacementEpoch: finalEpoch,
			Decisions:      sparseReference(t, tn, totalRounds, cfg),
		})
		if err != nil {
			t.Fatalf("MarshalResponse: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s: decisions diverge from bare scheduler across evict/fault-in\nservice:   %s\nreference: %s",
				tn.name, excerpt(got, want), excerpt(want, got))
		}
	}
}

// TestEvictFaultInDecisionsMatchBareScheduler is the paging half of the
// determinism contract: with aggressive cold-tenant eviction on, every
// fixture tenant quiesces, pages out to the chunk store mid-run, and is
// faulted back in by its second burst — and its decision stream must still be
// byte-identical to a bare scheduler that never saw any of it, whether every
// round ticks alone or the idle rounds tick as runs, so that tenants evict
// inside one multi-round round command.
func TestEvictFaultInDecisionsMatchBareScheduler(t *testing.T) {
	t.Run("tick-each-round", func(t *testing.T) { testEvictFaultInDecisionsMatchBareScheduler(t, nil) })
	t.Run("tick-runs", func(t *testing.T) {
		testEvictFaultInDecisionsMatchBareScheduler(t, &tickRuns{stops: map[int64]bool{14: true}})
	})
}

func testEvictFaultInDecisionsMatchBareScheduler(t *testing.T, runs *tickRuns) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, StateDir: t.TempDir(), EvictAfter: sparseEvict}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := sparseFixture()
	sawEvicted := false
	driveSparseRuns(t, client, tenants, sparseTotal, runs, func(r int64) {
		// Every first burst has resolved and aged out by round 14; the paging
		// machinery must actually have engaged, or the battery proves nothing.
		if r == 14 {
			if ev := svc.Stats().Totals.Evicted; ev == 0 {
				t.Fatalf("no tenant evicted by round %d; paging never engaged", r)
			}
			sawEvicted = true
		}
	})
	if !sawEvicted {
		t.Fatal("eviction checkpoint round never ran")
	}
	checkSparseDecisions(t, client, tenants, sparseTotal, cfg, cfg.Shards, 0)

	// The drop tail has passed and every tenant has aged out again: the whole
	// universe must be paged out, with zero residents.
	if st := svc.Stats(); st.Totals.Evicted != len(tenants) || st.Totals.Tenants != 0 {
		t.Fatalf("end state: resident=%d evicted=%d, want 0/%d", st.Totals.Tenants, st.Totals.Evicted, len(tenants))
	}
}

// TestReshardRidesChunkReferences pins the reshard path over the chunk
// store: a mid-run 2→4 split lands while the fixture holds all three tenant
// shapes — evicted stubs, clean chunk-backed residents (from a checkpoint cut
// two rounds earlier), and dirty residents — so stubs and clean tenants
// migrate as the chunk references they already have, while the cut writes
// each dirty mover as one new full chunk to the store. Decision streams must
// not see any of it, including the post-split fault-ins.
func TestReshardRidesChunkReferences(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, StateDir: t.TempDir(), EvictAfter: sparseEvict}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := sparseFixture()
	driveSparseFixture(t, client, tenants, sparseTotal, func(r int64) {
		switch r {
		case 12:
			// A live cut: residents become clean and chunk-backed, so the
			// split below has references to ride.
			if err := svc.Checkpoint(); err != nil {
				t.Fatalf("mid-run Checkpoint: %v", err)
			}
		case 14:
			if ev := svc.Stats().Totals.Evicted; ev == 0 {
				t.Fatalf("no tenant evicted before the split; fixture drifted")
			}
			rr, err := client.Reshard(4)
			if err != nil {
				t.Fatalf("Reshard(4): %v", err)
			}
			if rr.From != 2 || rr.Shards != 4 || rr.Epoch != 1 {
				t.Fatalf("unexpected reshard response %+v", rr)
			}
		}
	})
	checkSparseDecisions(t, client, tenants, sparseTotal, cfg, 4, 1)

	// The migrated universe must still cut and page: a final checkpoint on
	// the new ring succeeds and covers every tenant.
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("post-split Checkpoint: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(cfg.StateDir, shardManifestName(i))); err != nil {
			t.Fatalf("post-split manifest %d: %v", i, err)
		}
	}
}

// shardManifestName mirrors Service.shardManifestPath for tests that assert
// on the state-dir layout.
func shardManifestName(i int) string {
	return fmt.Sprintf("manifest-%04d.json", i)
}

// TestLegacyOnlyStateDirRefusesBoot pins that a state dir holding only
// full-state files from before incremental checkpoints (shard-*.json) refuses
// to boot, naming the file, instead of silently booting empty beside the
// tenants it holds — and leaves the files where they are.
func TestLegacyOnlyStateDirRefusesBoot(t *testing.T) {
	stateDir := t.TempDir()
	legacy := []byte(`{"schema":"rrserve-state/v1","shard":0,"shards":1,"round":3,"tenants":[{"name":"alpha"}]}`)
	path := filepath.Join(stateDir, "shard-0000.json")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatalf("write legacy file: %v", err)
	}
	_, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 64, StateDir: stateDir, RecordDecisions: true})
	if err == nil {
		t.Fatal("a legacy-only state dir booted")
	}
	if !strings.Contains(err.Error(), "shard-0000.json") {
		t.Fatalf("refusal does not name the legacy file: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, legacy) {
		t.Fatalf("refused boot touched the legacy file: %v", err)
	}
	if m, _ := filepath.Glob(filepath.Join(stateDir, "manifest-*.json")); len(m) != 0 {
		t.Fatalf("refused boot wrote manifests: %v", m)
	}
}

// TestOrphanChunksIgnoredAndCollected simulates the torn-cut crash window
// between a chunk write and the manifest rename, on the first cut and on a
// later one that rewrites dirty tenants. Both leave chunk files no manifest
// references. Restore must come up from the last
// committed manifests without ever reading the orphans (their content is
// garbage, so a read would fail loudly), and the next cut's GC must delete
// them.
func TestOrphanChunksIgnoredAndCollected(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, StateDir: t.TempDir()}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	client := NewClient(srv.URL)
	tenants := sparseFixture()
	// Two cuts with dirtying activity between them, so surviving tenants hold
	// chunks rewritten by the second cut — the state a torn second cut would
	// leave half written.
	driveSparseFixture(t, client, tenants, 12, nil)
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("first Checkpoint: %v", err)
	}
	for r := int64(12); r < 24; r++ {
		driveTailSparse(t, client, tenants, r)
	}
	svc.BeginDrain()
	srv.Close()
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	svc.Close()

	chunkDir := filepath.Join(cfg.StateDir, "chunks")
	committed := chunkSet(t, chunkDir)
	if len(committed) == 0 {
		t.Fatal("no chunks written by two cuts")
	}
	orphans := []string{"00000000deadbeef.chunk", "feedfacefeedface.chunk"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(chunkDir, name), []byte("torn garbage, never valid"), 0o644); err != nil {
			t.Fatalf("inject orphan: %v", err)
		}
	}

	// Restore ignores the orphans entirely; the tenants come back.
	svc2, restored, err := New(cfg)
	if err != nil {
		t.Fatalf("restore with orphans present: %v", err)
	}
	defer svc2.Close()
	if restored != len(tenants) {
		t.Fatalf("restored %d tenants, want %d", restored, len(tenants))
	}

	// The next cut collects them and keeps every referenced chunk.
	if err := svc2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after restore: %v", err)
	}
	after := chunkSet(t, chunkDir)
	for _, name := range orphans {
		if after[name] {
			t.Fatalf("orphan %s survived GC", name)
		}
	}
	for name := range committed {
		if !after[name] {
			t.Fatalf("GC deleted referenced chunk %s", name)
		}
	}
}

// TestFailedCheckpointCommitsNothing pins that a checkpoint whose cut fails on
// one shard writes no manifest, so the last committed set still boots. Shard
// 2's tenant is the only dirty one when a plain file stands in for the chunk
// dir (unlike a read-only mode, that stops root too): a Checkpoint that wrote
// each manifest right after its shard's cut would leave shards 0 and 1 at
// round 5 and the others at round 2, a set the next boot refuses.
func TestFailedCheckpointCommitsNothing(t *testing.T) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 64, StateDir: t.TempDir()}
	svc, client := newTestService(t, cfg)
	names := make([]string, cfg.Shards)
	for i, found := 0, 0; found < cfg.Shards; i++ {
		name := tenantName(i)
		if sh := svc.ShardFor(name); names[sh] == "" {
			names[sh] = name
			found++
		}
	}
	// Delay 1: every job is resolved by the round after it arrives, so the
	// rounds after the first checkpoint leave the other tenants clean.
	for _, name := range names {
		submitJobs(t, client, name, SubmitJob{ID: 0, Color: 0, Delay: 1})
	}
	if _, err := svc.Tick(2); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("first Checkpoint: %v", err)
	}
	submitJobs(t, client, names[2], SubmitJob{ID: 1, Color: 0, Delay: 1})
	if _, err := svc.Tick(3); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	for i, row := range svc.Stats().PerShard {
		if (row.Dirty > 0) != (i == 2) {
			t.Fatalf("shard %d has %d dirty tenants; only shard 2's tenant should be dirty", i, row.Dirty)
		}
	}
	chunkDir := filepath.Join(cfg.StateDir, "chunks")
	if err := os.Rename(chunkDir, chunkDir+".saved"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chunkDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := svc.Checkpoint(); err == nil {
		t.Fatal("Checkpoint succeeded with a file in place of its chunk dir")
	}
	svc.Close()
	if err := os.Remove(chunkDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(chunkDir+".saved", chunkDir); err != nil {
		t.Fatal(err)
	}
	svc2, restored, err := New(cfg)
	if err != nil {
		t.Fatalf("the last committed checkpoint no longer boots: %v", err)
	}
	defer svc2.Close()
	if round := svc2.Stats().Round; restored != cfg.Shards || round != 2 {
		t.Fatalf("rebooted with %d tenants at round %d, want %d at round 2", restored, round, cfg.Shards)
	}
}

// TestDecisionLogCrashLosesOnlyUncut pins the decision log's crash contract:
// a manifest names exactly the log as of its cut, so a crash loses exactly
// the records after the last Checkpoint. Records appended past the cut seal
// segments into the chunk store; Close without a Checkpoint strands them,
// and the reboot serves every stream exactly as of the cut.
func TestDecisionLogCrashLosesOnlyUncut(t *testing.T) {
	cfg := Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, StateDir: t.TempDir()}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	tenants := []string{"crash-a", "crash-b", "crash-c", "crash-d"}
	nextID := int64(0)
	drive := func(rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			for k, tn := range tenants {
				submitJobs(t, client, tn, SubmitJob{ID: 2 * nextID, Color: int32(k % 3), Delay: 4},
					SubmitJob{ID: 2*nextID + 1, Color: int32(3 + nextID%3), Delay: 8})
			}
			nextID++
			if _, err := svc.Tick(1); err != nil {
				t.Fatalf("Tick: %v", err)
			}
		}
	}
	streams := func(c *Client) map[string][]byte {
		t.Helper()
		out := map[string][]byte{}
		for _, tn := range tenants {
			data, err := c.DecisionsRaw(tn)
			if err != nil {
				t.Fatalf("DecisionsRaw(%s): %v", tn, err)
			}
			out[tn] = data
		}
		return out
	}

	drive(40)
	if err := svc.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	cutRound := svc.Round()
	atCut := streams(client)
	chunkDir := filepath.Join(cfg.StateDir, "chunks")
	cutChunks := len(chunkSet(t, chunkDir))

	// Past the cut until the log seals segments of its own into the store.
	drive(320)
	if sealed := len(chunkSet(t, chunkDir)) - cutChunks; sealed < 1 {
		t.Fatalf("320 rounds past the cut sealed no log segment (%d chunks at the cut)", cutChunks)
	}
	svc.Close() // a crash: no Checkpoint after the cut

	svc2, _, err := New(cfg)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer svc2.Close()
	if svc2.Round() != cutRound {
		t.Fatalf("rebooted at round %d, the cut was at %d", svc2.Round(), cutRound)
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	for tn, got := range streams(NewClient(srv2.URL)) {
		if !bytes.Equal(got, atCut[tn]) {
			t.Fatalf("tenant %s: rebooted stream differs from the stream as of the cut\ncut:    %.200s\nreboot: %.200s", tn, atCut[tn], got)
		}
	}
}

// driveTailSparse submits one round of the sparse fixture and ticks once.
func driveTailSparse(t *testing.T, client *Client, tenants []sparseTenant, r int64) {
	t.Helper()
	for _, tn := range tenants {
		jobs := sparseArrivals(tn, r)
		if len(jobs) == 0 {
			continue
		}
		out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: tn.name, Jobs: jobs})
		if err != nil || !out.Accepted {
			t.Fatalf("submit %s at round %d: out=%+v err=%v", tn.name, r, out, err)
		}
	}
	if _, err := client.Tick(1); err != nil {
		t.Fatalf("tick at round %d: %v", r, err)
	}
}

func chunkSet(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read chunk dir: %v", err)
	}
	out := map[string]bool{}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".chunk") {
			out[e.Name()] = true
		}
	}
	return out
}

// TestCutScalesWithDirtyNotResident is the drain-time bound behind the
// SIGTERM guarantee: once a universe is chunk-backed, a cut's write work is
// proportional to the dirty set, not the resident count. The proxy measured
// is chunk files written — wall-clock would be flaky in CI, file counts are
// exact — at two universe sizes with the same absolute dirty set.
func TestCutScalesWithDirtyNotResident(t *testing.T) {
	const dirty = 8
	written := map[int]int{}
	for _, n := range []int{200, 800} {
		cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 20, StateDir: t.TempDir()}
		svc, _, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		srv := httptest.NewServer(svc.Handler())
		client := NewClient(srv.URL)
		for i := 0; i < n; i++ {
			submitJobs(t, client, tenantName(i), SubmitJob{ID: 0, Color: 0, Delay: 4})
		}
		// Let every job resolve before the first cut, so nothing re-dirties
		// the universe afterwards.
		if _, err := client.Tick(8); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		if err := svc.Checkpoint(); err != nil {
			t.Fatalf("full cut: %v", err)
		}
		before := chunkSet(t, filepath.Join(cfg.StateDir, "chunks"))
		if len(before) < n {
			t.Fatalf("full cut wrote %d chunks for %d tenants", len(before), n)
		}
		for i := 0; i < dirty; i++ {
			submitJobs(t, client, tenantName(i), SubmitJob{ID: 1, Color: 0, Delay: 4})
		}
		if _, err := client.Tick(8); err != nil {
			t.Fatalf("Tick: %v", err)
		}
		svc.BeginDrain()
		srv.Close()
		if err := svc.Checkpoint(); err != nil {
			t.Fatalf("dirty cut: %v", err)
		}
		svc.Close()
		after := chunkSet(t, filepath.Join(cfg.StateDir, "chunks"))
		added := 0
		for name := range after {
			if !before[name] {
				added++
			}
		}
		written[n] = added
		// Each dirty tenant contributes exactly one full chunk; a cut that
		// re-serialized residents would add hundreds here.
		if added != dirty {
			t.Fatalf("dirty cut over %d tenants wrote %d new chunks for %d dirty, want one each", n, added, dirty)
		}
	}
	// The write work must not grow with the resident count.
	if written[800] > written[200]+dirty {
		t.Fatalf("cut work grew with universe size: %d new chunks at n=200, %d at n=800", written[200], written[800])
	}
}

func tenantName(i int) string {
	return "bulk-" + string(rune('a'+i/676%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}
