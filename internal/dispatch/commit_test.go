package dispatch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rrsched/internal/atomicio"
	"rrsched/internal/ckptstore"
)

// newestState reads shard's newest slot record in dir, failing the test when
// the pair holds none.
func newestState(t *testing.T, dir string, shard int) atomicio.Record {
	t.Helper()
	var paths [2]string
	for k, suffix := range slotSuffixes {
		paths[k] = filepath.Join(dir, fmt.Sprintf("shard-%04d%s", shard, suffix))
	}
	slots, rec, err := atomicio.OpenSlots(paths[0], paths[1], 0o644)
	if err != nil {
		t.Fatalf("shard %d state: %v", shard, err)
	}
	if err := slots.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Path == "" {
		t.Fatalf("shard %d holds no state record", shard)
	}
	return rec
}

// stateRecord is the record the dispatcher writes for a lease: the schema
// line, the epoch and the bundle.
func stateRecord(epoch int64, bundle []byte) []byte {
	rec := append([]byte(stateSchema+"\n"), binary.LittleEndian.AppendUint64(nil, uint64(epoch))...)
	return append(rec, bundle...)
}

// leaseRecord is what shard's lease holds, as the record that stores it.
func leaseRecord(d *Dispatcher, shard int) (int64, []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := &d.leases[shard]
	return l.round, l.checkpoint
}

// TestInFlightSyncFencedLeaseAndFileAgree pins the commit's order when a
// fence lands while a push's sync is in flight. The record is written and
// the round published under d.mu; only the sync runs after, so the fence
// (the holder declared dead) takes d.mu without waiting on the disk, and a
// second push to the same shard waits on the shard's lock rather than
// overwriting a slot before the first record is durable. The in-flight push
// is acknowledged once its sync returns; the lease and the newest record
// agree on its round and bundle, and a rebooted dispatcher advertises that
// round.
func TestInFlightSyncFencedLeaseAndFileAgree(t *testing.T) {
	cfg := testConfig()
	cfg.Service.Shards = 2
	cfg.StateDir = t.TempDir()
	d, clk := newTestDispatcher(t, cfg)
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})
	held := heldFromGrants(nil, mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1"}))
	for _, l := range held {
		if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: l.Shard, Epoch: l.Epoch, Round: 2,
			Data: testBundle(t, l.Shard, 2, 2, fmt.Sprintf("tenant-%d", l.Shard))}); err != nil {
			t.Fatalf("good push for shard %d: %v", l.Shard, err)
		}
	}

	reached, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	d.beforeSync = func(shard int) {
		if shard == 0 {
			once.Do(func() { close(reached) })
			<-release
		}
	}
	bundle := testBundle(t, 0, 2, 3, "alpha", "beta")
	inFlight := make(chan error, 1)
	go func() {
		inFlight <- d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: 0, Epoch: held[0].Epoch, Round: 3, Data: bundle})
	}()
	<-reached

	// The round is published before its sync, and d.mu is free: placement
	// reads and the fence go through while the sync is held.
	if got := d.Placement().Shards[0].Round; got != 3 {
		t.Fatalf("placement advertises round %d during the sync, want the published 3", got)
	}
	// A second push to the same shard folds now and waits on the shard's
	// lock until the first record is durable.
	next := testBundle(t, 0, 2, 4, "alpha", "beta")
	second := make(chan error, 1)
	go func() {
		second <- d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: 0, Epoch: held[0].Epoch, Round: 4, Data: next})
	}()
	clk.advance(d.cfg.HeartbeatEvery * time.Duration(d.cfg.MissBudget+1))
	d.sweep(clk.now())
	if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: 1, Epoch: held[1].Epoch, Round: 3,
		Data: testBundle(t, 1, 2, 3, "tenant-1")}); !errors.Is(err, errStaleEpoch) {
		t.Fatalf("push under the fenced epoch: %v, want a stale refusal", err)
	}
	select {
	case err := <-inFlight:
		t.Fatalf("push acknowledged (%v) before its sync ran", err)
	default:
	}
	close(release)
	if err := <-inFlight; err != nil {
		t.Fatalf("push whose sync was in flight when the fence landed: %v, want it acknowledged", err)
	}
	if err := <-second; !errors.Is(err, errStaleEpoch) {
		t.Fatalf("push behind the in-flight sync, after the fence: %v, want a stale refusal", err)
	}
	d.beforeSync = nil

	round, checkpoint := leaseRecord(d, 0)
	rec := newestState(t, cfg.StateDir, 0)
	if round != 3 || !bytes.Equal(rec.Data, stateRecord(held[0].Epoch, checkpoint)) {
		t.Fatalf("lease at round %d and the newest record (%d bytes) disagree, want both at the acknowledged push", round, len(rec.Data))
	}
	d.Close()
	d2, _ := newTestDispatcher(t, cfg)
	if got := d2.Placement().Shards[0].Round; got != 3 {
		t.Fatalf("rebooted dispatcher advertises round %d for shard 0, want the acknowledged 3", got)
	}
}

// TestInFlightCommitsPersistEveryShard drives each round's pushes to the
// four shards at once, with placement reads and heartbeats racing them.
// Every push is acknowledged, and then every lease equals its shard's
// newest record, which a rebooted dispatcher loads. A reshard 4→2 at the
// round barrier then leaves exactly the two shards' slot pairs, each slot
// holding the merged record, so neither can fall back to the old count.
func TestInFlightCommitsPersistEveryShard(t *testing.T) {
	const rounds = 6
	cfg := testConfig()
	cfg.StateDir = t.TempDir()
	d, _ := newTestDispatcher(t, cfg)
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})
	var held []LeaseInfo
	for len(held) < 4 {
		held = heldFromGrants(held, mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1", Held: held}))
	}
	bundles := make([][]byte, 4)
	for r := int64(1); r <= rounds; r++ {
		for i := range bundles {
			bundles[i] = testBundle(t, i, 4, r, fmt.Sprintf("tenant-%d-a", i), fmt.Sprintf("tenant-%d-b", i))
		}
		var wg sync.WaitGroup
		errs := make([]error, len(held))
		for k, l := range held {
			wg.Add(1)
			go func(k int, l LeaseInfo) {
				defer wg.Done()
				errs[k] = d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: l.Shard, Epoch: l.Epoch, Round: r, Data: bundles[l.Shard]})
			}(k, l)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Placement()
			_, _ = d.heartbeat(&HeartbeatRequest{Schema: WireSchema, Worker: "w1", Held: held}) // races the commits; the leases stand
		}()
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("round %d push for shard %d: %v", r, held[k].Shard, err)
			}
		}
	}
	for _, l := range held {
		round, checkpoint := leaseRecord(d, l.Shard)
		if rec := newestState(t, cfg.StateDir, l.Shard); round != rounds || !bytes.Equal(rec.Data, stateRecord(l.Epoch, checkpoint)) {
			t.Fatalf("shard %d: lease at round %d disagrees with its newest record", l.Shard, round)
		}
	}

	if _, err := d.Reshard(2); err != nil {
		t.Fatalf("Reshard(2): %v", err)
	}
	files, err := filepath.Glob(filepath.Join(cfg.StateDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, filepath.Base(f))
	}
	if fmt.Sprint(names) != "[shard-0000.a.state shard-0000.b.state shard-0001.a.state shard-0001.b.state]" {
		t.Fatalf("after the merge the state dir holds %v, want the two shards' slot pairs", names)
	}
	for shard := 0; shard < 2; shard++ {
		_, checkpoint := leaseRecord(d, shard)
		rec := newestState(t, cfg.StateDir, shard)
		// Empty the newest slot: the other must hold the same record.
		if err := os.WriteFile(rec.Path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if other := newestState(t, cfg.StateDir, shard); !bytes.Equal(other.Data, rec.Data) || !bytes.Contains(rec.Data, checkpoint) {
			t.Fatalf("merged shard %d: its slots hold different records, or not the lease's bundle", shard)
		}
	}
	d.Close()
	cfg.Service.Shards = 2
	d2, _ := newTestDispatcher(t, cfg)
	p := d2.Placement()
	if len(p.Shards) != 2 || p.Shards[0].Round != rounds || p.Shards[1].Round != rounds {
		t.Fatalf("rebooted after the merge: %+v, want 2 shards at round %d", p.Shards, rounds)
	}
}

// bundleTenants lists the tenants a stored bundle's manifest names.
func bundleTenants(t *testing.T, bundle []byte) []string {
	t.Helper()
	raw, err := ckptstore.NewMemStore().AddBundle(bundle)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ckptstore.DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ref := range m.Tenants {
		names = append(names, ref.Name)
	}
	return names
}

// diskTenants lists, sorted and without repeats, the tenants named by the
// newest record of every shard that has slot files in dir.
func diskTenants(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "shard-*"+slotSuffixes[0]))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		shard, ok := shardFileIndex(filepath.Base(f), slotSuffixes[0])
		if !ok {
			t.Fatalf("unexpected state file %s", f)
		}
		rec := newestState(t, dir, shard)
		names = append(names, bundleTenants(t, rec.Data[len(stateHeader)+8:])...)
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// copyStateDir copies dir's files into a fresh directory, as a crash at
// this point would leave them on disk.
func copyStateDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// storeRound pushes a bundle for every held lease at round, shard i's
// bundle naming tenants tenant-i-0 .. tenant-i-(perShard-1), and returns
// every tenant pushed, sorted.
func storeRound(t *testing.T, d *Dispatcher, held []LeaseInfo, shards, perShard int, round int64) []string {
	t.Helper()
	var all []string
	for _, l := range held {
		var names []string
		for k := 0; k < perShard; k++ {
			names = append(names, fmt.Sprintf("tenant-%d-%d", l.Shard, k))
		}
		if err := d.storeCheckpoint(&CheckpointPush{Worker: "w1", Shard: l.Shard, Epoch: l.Epoch, Round: round,
			Data: testBundle(t, l.Shard, shards, round, names...)}); err != nil {
			t.Fatalf("round %d push for shard %d: %v", round, l.Shard, err)
		}
		all = append(all, names...)
	}
	sort.Strings(all)
	return all
}

// TestReshardStateCrashPoints copies the state dir before a live reshard
// and after every durable step of its rewrite, as a crash at that point
// would leave it, and boots a dispatcher on each copy at the old count and
// at the new one. The untouched and the finished dir boot at either count
// with every tenant. Every copy in between is refused at both counts, so no
// boot starts a shard empty; and once every new record is written, before
// the old shards' files are removed, every tenant is still on disk.
func TestReshardStateCrashPoints(t *testing.T) {
	for _, tc := range []struct{ from, to int }{{4, 2}, {2, 4}, {3, 5}} {
		t.Run(fmt.Sprintf("%dto%d", tc.from, tc.to), func(t *testing.T) {
			cfg := testConfig()
			cfg.Service.Shards = tc.from
			cfg.StateDir = t.TempDir()
			d, clk := newTestDispatcher(t, cfg)
			d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})
			var held []LeaseInfo
			for len(held) < tc.from {
				held = heldFromGrants(held, mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1", Held: held}))
			}
			want := storeRound(t, d, held, tc.from, 3, 2)

			snaps := []string{copyStateDir(t, cfg.StateDir)}
			d.afterStateStep = func() { snaps = append(snaps, copyStateDir(t, cfg.StateDir)) }
			if _, err := d.Reshard(tc.to); err != nil {
				t.Fatalf("Reshard(%d): %v", tc.to, err)
			}
			d.afterStateStep = nil
			if steps := tc.to + max(tc.from-tc.to, 0); len(snaps) != steps+1 {
				t.Fatalf("rewrite took %d durable steps, want %d (a write per new shard, a removal per old one past the count)", len(snaps)-1, steps)
			}
			if tc.to < tc.from {
				if got := diskTenants(t, snaps[tc.to]); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("after every new record, before the removals, the newest records name %v, want every tenant %v", got, want)
				}
			}
			for k, dir := range snaps {
				edge := k == 0 || k == len(snaps)-1
				for _, shards := range []int{tc.from, tc.to} {
					boot := cfg
					boot.StateDir, boot.Service.Shards = dir, shards
					d2, err := newDispatcher(boot, clk.now)
					if err != nil {
						if edge {
							t.Fatalf("copy %d of %d at %d shards: %v, want a boot", k, len(snaps)-1, shards, err)
						}
						if !strings.Contains(err.Error(), "disagree") {
							t.Fatalf("copy %d at %d shards refused with %v, want a shard-count disagreement", k, shards, err)
						}
						continue
					}
					var got []string
					for i := range d2.leases {
						if len(d2.leases[i].checkpoint) == 0 {
							t.Fatalf("copy %d booted at %d shards with shard %d empty", k, shards, i)
						}
						got = append(got, bundleTenants(t, d2.leases[i].checkpoint)...)
					}
					d2.Close()
					sort.Strings(got)
					if !edge {
						t.Fatalf("copy %d, taken mid-rewrite, booted at %d shards; want a refusal", k, shards)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("copy %d booted at %d shards with tenants %v, want %v", k, shards, got, want)
					}
				}
			}
		})
	}
}

// TestReshardStateOpenFailureKeepsFleet splits a fleet while a new shard's
// slot pair cannot be opened (two non-empty slots, neither verifying). The
// reshard is refused before anything is written, and the fleet stays as it
// was: two shards, config epoch 0, and pushes on the standing leases commit.
// With the stale slots moved aside the split goes through.
func TestReshardStateOpenFailureKeepsFleet(t *testing.T) {
	cfg := testConfig()
	cfg.Service.Shards = 2
	cfg.StateDir = t.TempDir()
	d, _ := newTestDispatcher(t, cfg)
	d.register(&RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://h1"})
	held := heldFromGrants(nil, mustHeartbeat(t, d, &HeartbeatRequest{Schema: WireSchema, Worker: "w1"}))
	storeRound(t, d, held, 2, 2, 1)

	var stale []string
	for _, suffix := range slotSuffixes {
		p := filepath.Join(cfg.StateDir, "shard-0003"+suffix)
		if err := os.WriteFile(p, []byte("not a slot record"), 0o644); err != nil {
			t.Fatal(err)
		}
		stale = append(stale, p)
	}
	if _, err := d.Reshard(4); err == nil || !strings.Contains(err.Error(), "shard 3 state") {
		t.Fatalf("split onto unopenable slots: %v, want a refusal naming shard 3's state", err)
	}
	if st := d.Stats(); st.Shards != 2 || st.Epoch != 0 {
		t.Fatalf("after the refused split the fleet has %d shards at config epoch %d, want 2 at 0", st.Shards, st.Epoch)
	}
	for _, name := range []string{"shard-0002" + slotSuffixes[0], "shard-0002" + slotSuffixes[1]} {
		if _, err := os.Stat(filepath.Join(cfg.StateDir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("refused split left %s behind (%v)", name, err)
		}
	}
	storeRound(t, d, held, 2, 2, 2)
	for _, l := range held {
		_, checkpoint := leaseRecord(d, l.Shard)
		if rec := newestState(t, cfg.StateDir, l.Shard); !bytes.Equal(rec.Data, stateRecord(l.Epoch, checkpoint)) {
			t.Fatalf("shard %d: push after the refused split is not its newest record", l.Shard)
		}
	}

	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Reshard(4); err != nil {
		t.Fatalf("split with the stale slots moved aside: %v", err)
	}
	for shard := 0; shard < 4; shard++ {
		_, checkpoint := leaseRecord(d, shard)
		if rec := newestState(t, cfg.StateDir, shard); !bytes.Equal(rec.Data[len(stateHeader)+8:], checkpoint) {
			t.Fatalf("shard %d after the split: newest record does not hold the lease's bundle", shard)
		}
	}
}
