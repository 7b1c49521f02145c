package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rrsched/internal/ckptstore"
	"rrsched/internal/obs"
)

// This file is the serve tier's side of the incremental checkpoint store:
// dirty cuts (only dirty tenants are re-serialized), cold-tenant paging
// (quiescent tenants evict to the chunk store and fault back in on their next
// submission), and the one restore path (restoreManifest). The decision log
// lives in history.go, the hosted-tier bundle protocol in bundle.go, the
// formats in internal/ckptstore; this file owns the mapping between shard
// state and those formats.

// evictedStub is the resident trace of a paged-out tenant: enough to route
// reshards, answer decision queries, and fault the tenant back in, without
// holding any scheduler state.
type evictedStub struct {
	chunk uint64
	epoch int64
	class int
}

// cutCmd asks the shard to serialize its dirty tenants into the chunk store
// and return the manifest that commits the cut.
type cutCmd struct {
	reply chan cutResult
}

type cutResult struct {
	manifest []byte
	// roots are the manifest's referenced chunk IDs — this shard's
	// contribution to the GC root set.
	roots []uint64
	err   error
}

// markDirty flags a tenant whose state has diverged from its committed chunk.
func (sh *shard) markDirty(tn *tenant) {
	if !tn.dirty {
		tn.dirty = true
		sh.dirtyCount++
		sh.met.ckm.DirtyTenants.Set(int64(sh.dirtyCount))
	}
}

func (sh *shard) clearDirty(tn *tenant) {
	if tn.dirty {
		tn.dirty = false
		sh.dirtyCount--
		sh.met.ckm.DirtyTenants.Set(int64(sh.dirtyCount))
	}
}

// setPagingGauges refreshes the resident/evicted split gauges.
func (sh *shard) setPagingGauges() {
	sh.met.ckm.ResidentTenants.Set(int64(len(sh.tenants)))
	sh.met.ckm.EvictedTenants.Set(int64(len(sh.evicted)))
}

// cutChunk returns the chunk that holds a tenant's current state. A tenant
// that changed since its last chunk, or never had one, is first committed as
// one full chunk to the chunk store (disk in classic mode, the in-memory
// bundle pool in hosted mode), updating its reference and the chunk metrics.
func (sh *shard) cutChunk(tn *tenant) (uint64, error) {
	if !tn.dirty && tn.chunk != 0 {
		return tn.chunk, nil
	}
	payload, err := sh.tenantPayload(tn)
	if err != nil {
		return 0, err
	}
	res, err := sh.chunks().PutChunk(payload)
	if err != nil {
		return 0, fmt.Errorf("serve: shard %d tenant %q chunk: %w", sh.idx, tn.name, err)
	}
	ckm := sh.met.ckm
	if res.Wrote {
		ckm.ChunksWritten.Inc()
		ckm.ChunkBytes.Add(int64(res.Bytes))
	} else {
		ckm.ChunksDeduped.Inc()
	}
	tn.chunk = res.Ref.ID
	sh.clearDirty(tn)
	return tn.chunk, nil
}

// tenantRefs lists the tenants keep selects (every tenant when keep is nil)
// as manifest references: residents in name order, each naming the chunk
// chunkOf returns for it, then evicted stubs in name order.
func (sh *shard) tenantRefs(keep func(string) bool, chunkOf func(*tenant) (uint64, error)) ([]ckptstore.TenantRef, error) {
	var refs []ckptstore.TenantRef
	for _, name := range sh.order {
		if keep != nil && !keep(name) {
			continue
		}
		id, err := chunkOf(sh.tenants[name])
		if err != nil {
			return nil, err
		}
		refs = append(refs, ckptstore.TenantRef{Name: name, Chunk: ckptstore.FormatChunkID(id)})
	}
	stubs := make([]string, 0, len(sh.evicted))
	for name := range sh.evicted {
		if keep == nil || keep(name) {
			stubs = append(stubs, name)
		}
	}
	sort.Strings(stubs)
	for _, name := range stubs {
		stub := sh.evicted[name]
		refs = append(refs, ckptstore.TenantRef{
			Name:    name,
			Chunk:   ckptstore.FormatChunkID(stub.chunk),
			Evicted: true,
			Epoch:   stub.epoch,
			Class:   sh.classes[stub.class].Name,
		})
	}
	return refs, nil
}

// handleCut serializes the shard's dirty tenants into the chunk store and
// builds the manifest that commits the cut, naming the decision log as of
// the cut. Clean tenants keep their previous chunk reference; evicted
// tenants commit as stubs. Runs on the shard goroutine, strictly between
// round ticks.
func (sh *shard) handleCut() cutResult {
	if sh.store == nil {
		return cutResult{err: fmt.Errorf("serve: shard %d has no chunk store", sh.idx)}
	}
	refs, err := sh.tenantRefs(nil, sh.cutChunk)
	if err != nil {
		return cutResult{err: err}
	}
	m := &ckptstore.Manifest{
		Schema:         ckptstore.ManifestSchema,
		Shard:          sh.idx,
		Shards:         sh.nshards,
		Round:          sh.round,
		PlacementEpoch: sh.epoch,
		Tenants:        refs,
	}
	if err := sh.cutLog(m); err != nil {
		return cutResult{err: err}
	}
	data, err := ckptstore.EncodeManifest(m)
	if err != nil {
		return cutResult{err: fmt.Errorf("serve: shard %d manifest: %w", sh.idx, err)}
	}
	roots, err := m.Roots()
	if err != nil {
		return cutResult{err: err}
	}
	return cutResult{manifest: data, roots: roots}
}

// maybeEvict pages out tenants that have been quiescent for at least
// Config.EvictAfter rounds. Quiescence means no queued and no inflight work:
// such a tenant's future rounds are all trivial until its next submission, so
// the fast-forward a fault-in performs reproduces the live decision stream
// byte for byte. Runs at the end of a tick, on the shard goroutine.
func (sh *shard) maybeEvict() {
	if sh.cfg.EvictAfter <= 0 || sh.store == nil {
		return
	}
	var victims []string
	for _, name := range sh.order {
		tn := sh.tenants[name]
		if len(tn.queued) == 0 && len(tn.inflight) == 0 && sh.round-tn.lastActive >= sh.cfg.EvictAfter {
			victims = append(victims, name)
		}
	}
	if len(victims) == 0 {
		return
	}
	for _, name := range victims {
		sh.evictTenant(sh.tenants[name])
	}
	sh.setStateGauges()
	sh.setPagingGauges()
}

// evictTenant serializes one quiescent tenant into the chunk store and drops
// it from resident state, leaving a stub. A failed chunk write leaves the
// tenant resident (eviction is an optimization; the next tick retries).
func (sh *shard) evictTenant(tn *tenant) {
	if _, err := sh.cutChunk(tn); err != nil {
		return
	}
	sh.evicted[tn.name] = evictedStub{chunk: tn.chunk, epoch: tn.epoch, class: tn.class}
	delete(sh.tenants, tn.name)
	i := sort.SearchStrings(sh.order, tn.name)
	sh.order = append(sh.order[:i], sh.order[i+1:]...)
}

// faultIn transparently pages an evicted tenant back in: read its chunk,
// rebuild the tenant at the chunk's round, and adopt it. The returned
// tenant's scheduler sits at the chunk's round; the next tick's Push
// fast-forwards it to the shard round (a deterministic no-op walk, because an
// evicted tenant's skipped rounds are trivial). Returns (nil, nil) when the
// name is not evicted here.
func (sh *shard) faultIn(name string) (*tenant, error) {
	stub, ok := sh.evicted[name]
	if !ok {
		return nil, nil
	}
	t0 := obs.Now()
	payload, err := sh.store.ReadChunk(stub.chunk)
	if err != nil {
		return nil, fmt.Errorf("serve: faulting in tenant %q: %w", name, err)
	}
	ti, err := readTenantPayload(payload, name, sh.round)
	if err != nil {
		return nil, fmt.Errorf("serve: faulting in tenant %q: %w", name, err)
	}
	tn, err := sh.buildTenant(ti)
	if err != nil {
		return nil, err
	}
	delete(sh.evicted, name)
	tn.chunk = stub.chunk
	tn.lastActive = sh.round
	sh.tenants[name] = tn
	i := sort.SearchStrings(sh.order, name)
	sh.order = append(sh.order, "")
	copy(sh.order[i+1:], sh.order[i:])
	sh.order[i] = name
	sh.backlog += len(tn.queued)
	sh.classBacklog[tn.class] += len(tn.queued)
	sh.inflight += len(tn.inflight)
	sh.setStateGauges()
	sh.setPagingGauges()
	sh.met.ckm.FaultIns.Inc()
	sh.met.ckm.FaultInNs.Observe(obs.Now() - t0)
	return tn, nil
}

// restoreManifest rebuilds a shard from a checkpoint manifest: the one
// restore path of both a state-dir boot and a hosted OpenShard. It takes the
// manifest's round and placement, adopts its tenants through adoptRefs, and
// reopens the decision log it names. Called before the shard serves.
func (sh *shard) restoreManifest(m *ckptstore.Manifest, ring hashRing) error {
	if m.Shard != sh.idx {
		return fmt.Errorf("serve: checkpoint is for shard %d, restoring shard %d", m.Shard, sh.idx)
	}
	if m.Shards != sh.cfg.Shards {
		return fmt.Errorf("serve: checkpoint taken with %d shards, shard expects %d", m.Shards, sh.cfg.Shards)
	}
	sh.round = m.Round
	if !sh.cfg.Hosted {
		// A hosted shard's placement is the dispatcher's config epoch, not a
		// worker-local ring epoch: leave it at zero there.
		sh.epoch = m.PlacementEpoch
	}
	if err := sh.adoptRefs(m.Tenants, m.Round, ring, sh.chunks().ReadChunk); err != nil {
		return err
	}
	return sh.openLog(m)
}

// adoptRefs adopts the tenants a manifest's references name, cut at round:
// the one per-tenant restore loop of a state-dir boot, an OpenShard and a
// live reshard's targets. Resident tenants are read out of their chunks
// through read and rebuilt at their chunk's round (the next tick
// fast-forwards them to round), so an adopted tenant's eviction clock
// restarts from the round its chunk was cut at; evicted tenants adopt as
// stubs without touching their chunks, which needs the shard's durable store
// to fault them back in from. Validation is field by field: a corrupted or
// foreign reference is rejected with an error rather than resumed into an
// inconsistent shard.
func (sh *shard) adoptRefs(refs []ckptstore.TenantRef, round int64, ring hashRing, read func(uint64) ([]byte, error)) error {
	for i := range refs {
		ref := &refs[i]
		if err := ValidateTenant(ref.Name); err != nil {
			return fmt.Errorf("serve: manifest tenant: %w", err)
		}
		if got := ring.ShardOf(ref.Name); got != sh.idx {
			return fmt.Errorf("serve: manifest places tenant %q on shard %d, ring says %d", ref.Name, sh.idx, got)
		}
		if _, dup := sh.tenants[ref.Name]; dup {
			return fmt.Errorf("serve: manifest repeats tenant %q", ref.Name)
		}
		if _, dup := sh.evicted[ref.Name]; dup {
			return fmt.Errorf("serve: manifest repeats tenant %q", ref.Name)
		}
		id, err := ref.ChunkID()
		if err != nil {
			return err
		}
		if ref.Evicted {
			if sh.store == nil {
				return fmt.Errorf("serve: manifest pages out tenant %q, shard %d has no chunk store to fault it in from", ref.Name, sh.idx)
			}
			class, ok := sh.restoreClass(ref.Class)
			if !ok {
				return fmt.Errorf("serve: evicted tenant %q has unknown class %q", ref.Name, ref.Class)
			}
			if !sh.store.Has(id) {
				return fmt.Errorf("serve: evicted tenant %q chunk %s missing from the store", ref.Name, ref.Chunk)
			}
			sh.evicted[ref.Name] = evictedStub{chunk: id, epoch: ref.Epoch, class: class}
			continue
		}
		payload, err := read(id)
		if err != nil {
			return fmt.Errorf("serve: tenant %q chunk %s: %w", ref.Name, ref.Chunk, err)
		}
		ti, err := readTenantPayload(payload, ref.Name, round)
		if err != nil {
			return fmt.Errorf("%w (chunk %s)", err, ref.Chunk)
		}
		tn, err := sh.buildTenant(ti)
		if err != nil {
			return fmt.Errorf("%w (chunk %s)", err, ref.Chunk)
		}
		tn.chunk = id
		sh.tenants[tn.name] = tn
		sh.order = append(sh.order, tn.name)
		sh.backlog += len(tn.queued)
		sh.classBacklog[tn.class] += len(tn.queued)
		sh.inflight += len(tn.inflight)
	}
	sort.Strings(sh.order)
	sh.setStateGauges()
	sh.setPagingGauges()
	return nil
}

// restoreManifests loads an incremental checkpoint set, if one exists: all
// manifests or none, set-internal agreement on shards/round/epoch, and a
// count mismatch with the current configuration re-routes references and
// decision logs through the current ring (ReshardManifests) instead of
// refusing. Returns found=false when the state dir holds no manifests.
func (s *Service) restoreManifests(pl *placement) (restored int, found bool, err error) {
	files, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "manifest-*.json"))
	if err != nil {
		return 0, false, fmt.Errorf("serve: probing state dir: %w", err)
	}
	if len(files) == 0 {
		return 0, false, nil
	}
	ms := make([]*ckptstore.Manifest, 0, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 0, false, fmt.Errorf("serve: reading %s: %w", f, err)
		}
		m, err := ckptstore.DecodeManifest(data)
		if err != nil {
			return 0, false, fmt.Errorf("serve: %s: %w", f, err)
		}
		ms = append(ms, m)
	}
	want := ms[0].Shards
	if len(files) != want {
		return 0, false, fmt.Errorf("serve: state dir %s has %d of %d manifests; refusing a partial restore",
			s.cfg.StateDir, len(files), want)
	}
	byIdx := make([]*ckptstore.Manifest, want)
	for _, m := range ms {
		if m.Shards != want {
			return 0, false, fmt.Errorf("serve: manifest shard counts diverge (%d vs %d)", m.Shards, want)
		}
		if m.Round != ms[0].Round {
			return 0, false, fmt.Errorf("serve: shard rounds diverge in manifest set (%d vs %d)", m.Round, ms[0].Round)
		}
		if m.PlacementEpoch != ms[0].PlacementEpoch {
			return 0, false, fmt.Errorf("serve: placement epochs diverge in manifest set (%d vs %d)", m.PlacementEpoch, ms[0].PlacementEpoch)
		}
		if byIdx[m.Shard] != nil {
			return 0, false, fmt.Errorf("serve: state dir repeats manifest for shard %d", m.Shard)
		}
		byIdx[m.Shard] = m
	}
	if want != s.cfg.Shards {
		byIdx, err = ReshardManifests(byIdx, s.cfg.Shards, s.store)
		if err != nil {
			return 0, false, fmt.Errorf("serve: re-routing %d-shard manifest set into %d shards: %w", want, s.cfg.Shards, err)
		}
	}
	for i, sh := range pl.shards {
		if err := sh.restoreManifest(byIdx[i], pl.ring); err != nil {
			return 0, false, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		restored += len(sh.tenants) + len(sh.evicted)
	}
	pl.epoch = pl.shards[0].epoch
	s.round.Store(pl.shards[0].round)
	return restored, true, nil
}

// ReshardManifests transforms a complete manifest set taken under one shard
// count into an equivalent set for newShards: tenant references are re-routed
// through the newShards ring, the round is kept, and the placement epoch is
// bumped past the input's. No tenant chunk moves — references keep pointing
// into the shared store, which is what makes resharding an incremental
// checkpoint set O(tenants) instead of O(state bytes). Decision logs move
// record by record (relog): their segments mix tenants, so each new shard's
// log is written afresh into chunks, which also holds the old segments. It
// is the one reshard transform: a state-dir boot under a new shard count,
// the dispatcher's fleet resize (live and at boot) and a live reshard's
// mover cuts all go through it.
func ReshardManifests(old []*ckptstore.Manifest, newShards int, chunks ckptstore.Chunks) ([]*ckptstore.Manifest, error) {
	if newShards < 1 || newShards > MaxShards {
		return nil, fmt.Errorf("serve: reshard to %d shards out of range (1..%d)", newShards, MaxShards)
	}
	if len(old) == 0 {
		return nil, fmt.Errorf("serve: no manifests to reshard")
	}
	for i, m := range old {
		if m == nil || m.Shard != i {
			return nil, fmt.Errorf("serve: manifest %d missing or misnumbered", i)
		}
		if m.Shards != len(old) {
			return nil, fmt.Errorf("serve: manifest %d was taken with %d shards, set has %d", i, m.Shards, len(old))
		}
		if m.Round != old[0].Round {
			return nil, fmt.Errorf("serve: shard rounds diverge in manifest set (%d vs %d)", m.Round, old[0].Round)
		}
		if m.PlacementEpoch != old[0].PlacementEpoch {
			return nil, fmt.Errorf("serve: placement epochs diverge in manifest set (%d vs %d)", m.PlacementEpoch, old[0].PlacementEpoch)
		}
	}
	ring := newHashRing(newShards)
	out := make([]*ckptstore.Manifest, newShards)
	for i := range out {
		out[i] = &ckptstore.Manifest{
			Schema:         ckptstore.ManifestSchema,
			Shard:          i,
			Shards:         newShards,
			Round:          old[0].Round,
			PlacementEpoch: old[0].PlacementEpoch + 1,
		}
	}
	seen := make(map[string]bool)
	for _, m := range old {
		for i := range m.Tenants {
			ref := m.Tenants[i]
			if seen[ref.Name] {
				return nil, fmt.Errorf("serve: manifest set repeats tenant %q", ref.Name)
			}
			seen[ref.Name] = true
			t := ring.ShardOf(ref.Name)
			out[t].Tenants = append(out[t].Tenants, ref)
		}
	}
	for _, m := range out {
		sort.Slice(m.Tenants, func(a, b int) bool { return m.Tenants[a].Name < m.Tenants[b].Name })
	}
	if err := relog(old, out, ring, chunks); err != nil {
		return nil, err
	}
	return out, nil
}
