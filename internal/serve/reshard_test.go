package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rrsched/internal/ckptstore"
)

// checkDecisionsMatchReference byte-compares every tenant's /v1/decisions
// stream against a bare stream.Scheduler fed the same arrivals, with the
// expected response carrying the given final shard ring and placement epoch.
func checkDecisionsMatchReference(t *testing.T, client *Client, tenants []detTenant, totalRounds int64, cfg Config, finalShards int, finalEpoch int64) {
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
			Epoch:          epochOf(tn),
			Round:          totalRounds,
			PlacementEpoch: finalEpoch,
			Decisions:      referenceDecisions(t, tn, totalRounds, cfg),
		})
		if err != nil {
			t.Fatalf("MarshalResponse: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s: decisions diverge from bare scheduler after reshard\nservice:   %s\nreference: %s",
				tn.name, excerpt(got, want), excerpt(want, got))
		}
	}
}

// TestReshardSplitDeterminism is the headline property of online resharding:
// a 4→8 split landing in the middle of a seeded multi-tenant run must leave
// every tenant's decision stream byte-identical to a bare scheduler that
// never saw a reshard. The split migrates tenants shard-to-shard through the
// checkpoint→transfer→restore path while the fixture keeps submitting.
func TestReshardSplitDeterminism(t *testing.T) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := detFixture(t, 42)
	totalRounds := int64(45)
	driveServiceHook(t, client, tenants, totalRounds, func(r int64) {
		if r != 15 {
			return
		}
		rr, err := client.Reshard(8)
		if err != nil {
			t.Fatalf("Reshard(8): %v", err)
		}
		if rr.From != 4 || rr.Shards != 8 || rr.Epoch != 1 || rr.Round != 15 {
			t.Fatalf("unexpected reshard response %+v", rr)
		}
		if rr.Moved == 0 || rr.MigratedBytes == 0 {
			t.Fatalf("split moved nothing: %+v", rr)
		}
	})
	checkDecisionsMatchReference(t, client, tenants, totalRounds, cfg, 8, 1)

	st := svc.Stats()
	if st.Epoch != 1 || st.Reshards != 1 || st.Shards != 8 {
		t.Fatalf("stats after split: epoch=%d reshards=%d shards=%d", st.Epoch, st.Reshards, st.Shards)
	}
}

// TestReshardMergeDeterminism is the shrink direction: an 8→3 merge mid-run,
// with the merged-away shards' tenants migrating onto the survivors, must be
// invisible in every decision stream.
func TestReshardMergeDeterminism(t *testing.T) {
	cfg := Config{Shards: 8, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := detFixture(t, 43)
	totalRounds := int64(45)
	driveServiceHook(t, client, tenants, totalRounds, func(r int64) {
		if r != 20 {
			return
		}
		rr, err := client.Reshard(3)
		if err != nil {
			t.Fatalf("Reshard(3): %v", err)
		}
		if rr.From != 8 || rr.Shards != 3 || rr.Epoch != 1 {
			t.Fatalf("unexpected reshard response %+v", rr)
		}
	})
	checkDecisionsMatchReference(t, client, tenants, totalRounds, cfg, 3, 1)
}

// TestReshardRepeatedDeterminism stacks a split and a merge in one run: the
// pool goes 4→8 at round 10 and 8→2 at round 25, and the streams still match
// the bare scheduler. Epochs must step 0→1→2.
func TestReshardRepeatedDeterminism(t *testing.T) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := detFixture(t, 44)
	totalRounds := int64(45)
	driveServiceHook(t, client, tenants, totalRounds, func(r int64) {
		switch r {
		case 10:
			if rr, err := client.Reshard(8); err != nil || rr.Epoch != 1 {
				t.Fatalf("Reshard(8): rr=%+v err=%v", rr, err)
			}
		case 25:
			if rr, err := client.Reshard(2); err != nil || rr.Epoch != 2 {
				t.Fatalf("Reshard(2): rr=%+v err=%v", rr, err)
			}
		}
	})
	checkDecisionsMatchReference(t, client, tenants, totalRounds, cfg, 2, 2)

	if got := svc.Stats().Reshards; got != 2 {
		t.Fatalf("stats counted %d reshards, want 2", got)
	}
}

// TestReshardRacesSubmissions drives the fixture while the reshard fires
// from a separate goroutine, unsynchronized with the submit waves: parked
// and bounced submissions must replay under the new epoch without a single
// error surfacing, and the streams must still match the bare scheduler.
// Run under -race, this is also the memory-model check on the placement
// swap, the park gate, and the epoch fences.
func TestReshardRacesSubmissions(t *testing.T) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := detFixture(t, 45)
	totalRounds := int64(45)
	var wg sync.WaitGroup
	driveServiceHook(t, client, tenants, totalRounds, func(r int64) {
		if r != 15 {
			return
		}
		// Fire the reshard concurrently with round 15's submissions. It
		// serializes with ticks on tickMu, so determinism holds; what races
		// is admission, which must park and replay.
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Reshard(7); err != nil {
				t.Errorf("Reshard(7): %v", err)
			}
		}()
	})
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	checkDecisionsMatchReference(t, client, tenants, totalRounds, cfg, 7, 1)
}

// TestReshardThenDrainRestore pins that a resharded pool drains and restores
// like any other: checkpoint files carry the bumped placement epoch, a new
// service at the post-split count resumes from them, and the combined run's
// decision streams match the bare scheduler end to end. The reshard lands
// either mid-run or on the drain round itself: there the drain's cut follows
// at once, so its manifests name the movers exactly as their targets adopted
// them, and a mover adopted from a chunk outside the state dir's store would
// fail the restore.
func TestReshardThenDrainRestore(t *testing.T) {
	for _, at := range []int64{10, 20} {
		t.Run(fmt.Sprintf("round%d", at), func(t *testing.T) {
			stateDir := t.TempDir()
			cfg := Config{
				Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16,
				RecordDecisions: true, StateDir: stateDir,
			}
			svc, _, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			srv := httptest.NewServer(svc.Handler())
			client := NewClient(srv.URL)

			tenants := detFixture(t, 46)
			reshard := func(r int64) {
				if r != at {
					return
				}
				if rr, err := client.Reshard(6); err != nil || rr.Moved == 0 {
					t.Fatalf("Reshard(6): rr=%+v err=%v", rr, err)
				}
			}
			driveServiceHook(t, client, tenants, 20, reshard)
			reshard(20)
			svc.BeginDrain()
			srv.Close()
			if err := svc.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			svc.Close()

			resumed := cfg
			resumed.Shards = 6
			svc2, _, err := New(resumed)
			if err != nil {
				t.Fatalf("restore at post-split count: %v", err)
			}
			defer svc2.Close()
			if got := svc2.Epoch(); got != 1 {
				t.Fatalf("restored epoch %d, want 1", got)
			}
			srv2 := httptest.NewServer(svc2.Handler())
			defer srv2.Close()
			client2 := NewClient(srv2.URL)

			// Resume the fixture where the first service stopped.
			totalRounds := int64(45)
			for r := int64(20); r < totalRounds; r++ {
				driveRound(t, client2, tenants, r)
				if _, err := client2.Tick(1); err != nil {
					t.Fatalf("Tick at round %d: %v", r, err)
				}
			}
			checkDecisionsMatchReference(t, client2, tenants, totalRounds, cfg, 6, 1)
		})
	}
}

// TestBootRestoreAcrossShardCounts is the satellite restore property: a
// checkpoint set cut at 4 shards boots an 8-shard pool (and a 3-shard one),
// with every tenant re-routed through the new ring and the full-run decision
// streams still byte-identical to the bare scheduler.
func TestBootRestoreAcrossShardCounts(t *testing.T) {
	for _, newShards := range []int{8, 3} {
		stateDir := t.TempDir()
		cfg := Config{
			Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16,
			RecordDecisions: true, StateDir: stateDir,
		}
		svc, _, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		srv := httptest.NewServer(svc.Handler())
		client := NewClient(srv.URL)
		tenants := detFixture(t, 47)
		driveService(t, client, tenants, 20)
		svc.BeginDrain()
		srv.Close()
		if err := svc.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		svc.Close()

		grown := cfg
		grown.Shards = newShards
		svc2, _, err := New(grown)
		if err != nil {
			t.Fatalf("restore 4-shard checkpoints into %d shards: %v", newShards, err)
		}
		if got := svc2.Epoch(); got != 1 {
			t.Fatalf("boot reshard to %d shards: epoch %d, want 1", newShards, got)
		}
		srv2 := httptest.NewServer(svc2.Handler())
		client2 := NewClient(srv2.URL)

		totalRounds := int64(45)
		for r := int64(20); r < totalRounds; r++ {
			driveRound(t, client2, tenants, r)
			if _, err := client2.Tick(1); err != nil {
				t.Fatalf("Tick at round %d: %v", r, err)
			}
		}
		checkDecisionsMatchReference(t, client2, tenants, totalRounds, cfg, newShards, 1)
		srv2.Close()
		svc2.Close()
	}
}

// driveRound replays one global round of the fixture (submissions, no tick).
func driveRound(t *testing.T, client *Client, tenants []detTenant, r int64) {
	t.Helper()
	var wg sync.WaitGroup
	for i := range tenants {
		tn := &tenants[i]
		local := r - tn.startRound
		if local < 0 {
			continue
		}
		jobs := tn.seq.Request(local)
		if len(jobs) == 0 {
			continue
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			wire := make([]SubmitJob, len(jobs))
			for k, j := range jobs {
				wire[k] = SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay}
			}
			out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: name, Jobs: wire})
			if err != nil || !out.Accepted {
				t.Errorf("submit %s: out=%+v err=%v", name, out, err)
			}
		}(tn.name)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// TestReshardBudgetAbort pins the unit of the reshard budget: the chunk
// bytes the movers' cut writes. A service with no state dir writes every
// mover as a chunk, so a 1-byte budget aborts the reshard with
// ErrReshardBudget and leaves the pool exactly as it was — same epoch, same
// shard count, same shard state, still serving, decision streams unharmed.
// A durable service aborts the same way while its movers are dirty, but once
// it has checkpointed it moves only chunk references and decision-log
// records, which count nothing, so the same budget lets its reshard through.
func TestReshardBudgetAbort(t *testing.T) {
	cfg := Config{
		Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16,
		RecordDecisions: true, ReshardBudget: 1, // one byte: any chunk the cut writes blows it
	}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := detFixture(t, 48)
	totalRounds := int64(45)
	driveServiceHook(t, client, tenants, totalRounds, func(r int64) {
		if r != 15 {
			return
		}
		before := svc.Stats().PerShard
		_, err := svc.Reshard(8)
		if !errors.Is(err, ErrReshardBudget) {
			t.Fatalf("Reshard under 1-byte budget: err=%v, want ErrReshardBudget", err)
		}
		if after := svc.Stats().PerShard; !reflect.DeepEqual(after, before) {
			t.Fatalf("aborted reshard changed shard state:\nbefore %+v\nafter  %+v", before, after)
		}
		if got := svc.Epoch(); got != 0 {
			t.Fatalf("aborted reshard left epoch %d, want 0", got)
		}
		if got := svc.Stats().Shards; got != 4 {
			t.Fatalf("aborted reshard left %d shards, want 4", got)
		}
	})
	checkDecisionsMatchReference(t, client, tenants, totalRounds, cfg, 4, 0)

	if got := svc.Stats().Reshards; got != 0 {
		t.Fatalf("aborted reshard counted as %d reshards, want 0", got)
	}

	// Durable: dirty movers abort the reshard and change no shard; then
	// Checkpoint, no activity, and the reshard under the same 1-byte budget.
	// Every mover is clean and chunk-backed, so nothing is written and
	// nothing counts.
	durable := cfg
	durable.StateDir = t.TempDir()
	dsvc, _, err := New(durable)
	if err != nil {
		t.Fatalf("New(durable): %v", err)
	}
	defer dsvc.Close()
	dsrv := httptest.NewServer(dsvc.Handler())
	defer dsrv.Close()
	dclient := NewClient(dsrv.URL)
	driveServiceHook(t, dclient, tenants, totalRounds, func(r int64) {
		switch r {
		case 14:
			before := dsvc.Stats().PerShard
			if _, err := dsvc.Reshard(8); !errors.Is(err, ErrReshardBudget) {
				t.Fatalf("Reshard with dirty movers under 1-byte budget: err=%v, want ErrReshardBudget", err)
			}
			if after := dsvc.Stats().PerShard; !reflect.DeepEqual(after, before) {
				t.Fatalf("aborted durable reshard changed shard state:\nbefore %+v\nafter  %+v", before, after)
			}
		case 15:
			if err := dsvc.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			rr, err := dsvc.Reshard(8)
			if err != nil {
				t.Fatalf("reference-only Reshard under 1-byte budget: %v", err)
			}
			if rr.Moved == 0 || rr.MigratedBytes != 0 {
				t.Fatalf("reference-only reshard: %+v, want movers and 0 migrated bytes", rr)
			}
		}
	})
	checkDecisionsMatchReference(t, dclient, tenants, totalRounds, durable, 8, 1)
}

// TestReshardRefusals pins the guard rails: no-op counts, out-of-range
// counts, draining services, and hosted pools all refuse to reshard.
func TestReshardRefusals(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 64}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := svc.Reshard(2); err == nil {
		t.Fatal("resharding to the current count succeeded")
	}
	if _, err := svc.Reshard(0); err == nil {
		t.Fatal("resharding to 0 shards succeeded")
	}
	if _, err := svc.Reshard(MaxShards + 1); err == nil {
		t.Fatal("resharding past MaxShards succeeded")
	}
	svc.BeginDrain()
	if _, err := svc.Reshard(4); err == nil {
		t.Fatal("resharding a draining service succeeded")
	}
	svc.Close()

	hosted := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 64, Hosted: true}
	hsvc, _, err := New(hosted)
	if err != nil {
		t.Fatalf("New(hosted): %v", err)
	}
	defer hsvc.Close()
	if _, err := hsvc.Reshard(4); err == nil || !strings.Contains(err.Error(), "dispatcher") {
		t.Fatalf("hosted reshard: err=%v, want dispatcher refusal", err)
	}
}

// TestReshardMetrics pins the new observability: one split must count one
// reshard, its moved tenants and bytes, at least one duration sample, and
// non-zero parked submissions are reflected when the gate catches traffic.
func TestReshardMetrics(t *testing.T) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := detFixture(t, 49)
	driveServiceHook(t, client, tenants, 20, func(r int64) {
		if r == 10 {
			if _, err := client.Reshard(8); err != nil {
				t.Fatalf("Reshard(8): %v", err)
			}
		}
	})

	snap, err := svc.MergedMetrics()
	if err != nil {
		t.Fatalf("MergedMetrics: %v", err)
	}
	counters := map[string]int64{}
	histCount := map[string]int64{}
	for _, m := range snap.Metrics {
		counters[m.Name] += m.Value
		histCount[m.Name] += m.Count
	}
	if counters[MetricReshards] != 1 {
		t.Fatalf("%s = %d, want 1", MetricReshards, counters[MetricReshards])
	}
	if counters[MetricReshardTenants] == 0 {
		t.Fatalf("%s = 0, want > 0", MetricReshardTenants)
	}
	if counters[MetricReshardBytes] == 0 {
		t.Fatalf("%s = 0, want > 0", MetricReshardBytes)
	}
	if histCount[MetricReshardNs] != 1 {
		t.Fatalf("%s histogram has %d samples, want 1", MetricReshardNs, histCount[MetricReshardNs])
	}
}

// TestReshardManifestsTransform unit-tests the one reshard transform:
// tenant sets are preserved and re-routed with their chunk references intact,
// rounds are kept and epochs bumped, and malformed sets (diverging rounds or
// epochs, repeated tenants, wrong counts) are refused.
func TestReshardManifestsTransform(t *testing.T) {
	mk := func(shard, shards int, round, epoch int64, names ...string) *ckptstore.Manifest {
		m := &ckptstore.Manifest{Schema: ckptstore.ManifestSchema, Shard: shard, Shards: shards, Round: round, PlacementEpoch: epoch}
		for i, n := range names {
			m.Tenants = append(m.Tenants, ckptstore.TenantRef{Name: n, Chunk: ckptstore.FormatChunkID(uint64(100 + i))})
		}
		return m
	}
	ring2 := newHashRing(2)
	var on0, on1 []string
	for _, n := range []string{"alpha", "beta", "gamma", "delta"} {
		if ring2.ShardOf(n) == 0 {
			on0 = append(on0, n)
		} else {
			on1 = append(on1, n)
		}
	}
	old := []*ckptstore.Manifest{mk(0, 2, 7, 3, on0...), mk(1, 2, 7, 3, on1...)}
	refs := map[string]ckptstore.TenantRef{}
	for _, m := range old {
		for _, ref := range m.Tenants {
			refs[ref.Name] = ref
		}
	}

	out, err := ReshardManifests(old, 5, ckptstore.NewMemStore())
	if err != nil {
		t.Fatalf("ReshardManifests: %v", err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d outputs, want 5", len(out))
	}
	ring5 := newHashRing(5)
	seen := map[string]bool{}
	for i, m := range out {
		if m.Shard != i || m.Shards != 5 || m.Round != 7 || m.PlacementEpoch != 4 {
			t.Fatalf("output %d header: %+v", i, m)
		}
		if _, err := ckptstore.EncodeManifest(m); err != nil {
			t.Fatalf("output %d does not encode: %v", i, err)
		}
		for _, ref := range m.Tenants {
			if got := ring5.ShardOf(ref.Name); got != i {
				t.Fatalf("tenant %q on shard %d, ring says %d", ref.Name, i, got)
			}
			if ref != refs[ref.Name] {
				t.Fatalf("tenant %q reference changed: %+v, was %+v", ref.Name, ref, refs[ref.Name])
			}
			seen[ref.Name] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("transform preserved %d tenants, want 4", len(seen))
	}

	bad := map[string][]*ckptstore.Manifest{
		"diverging rounds":           {mk(0, 2, 7, 3), mk(1, 2, 8, 3)},
		"diverging placement epochs": {mk(0, 2, 7, 3), mk(1, 2, 7, 4)},
		"repeated tenant":            {mk(0, 2, 7, 3, "alpha"), mk(1, 2, 7, 3, "alpha")},
		"incomplete set":             {mk(0, 3, 7, 3)},
		"misnumbered set":            {mk(1, 2, 7, 3), mk(0, 2, 7, 3)},
		"empty set":                  nil,
	}
	for what, set := range bad {
		if _, err := ReshardManifests(set, 4, ckptstore.NewMemStore()); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
}

// TestReshardMovesIdleTenantsTwice pins that a service with no state dir
// moves a mover again on a later reshard even when it stayed idle in
// between. Such a mover was adopted from a chunk of the first reshard's
// in-memory pool, which is gone by the second, so the second cut must write
// it afresh instead of naming that chunk. The sparse fixture leaves every
// tenant idle across rounds 7–9; a 2→4 split and a 4→2 merge move the same
// tenants out and back.
func TestReshardMovesIdleTenantsTwice(t *testing.T) {
	cfg := Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
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
		var to int
		switch r {
		case 7:
			to = 4
		case 9:
			to = 2
		default:
			return
		}
		if rr, err := client.Reshard(to); err != nil || rr.Moved == 0 {
			t.Fatalf("Reshard(%d) at round %d: rr=%+v err=%v", to, r, rr, err)
		}
	})
	checkSparseDecisions(t, client, tenants, sparseTotal, cfg, 2, 2)
}
