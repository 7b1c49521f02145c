package serve

import (
	"fmt"

	"rrsched/internal/ckptstore"
	"rrsched/internal/stream"
)

// Hosted-tier checkpoints are ckptstore bundles: the shard's manifest plus
// content-addressed chunks. A shard keeps its chunks in an in-memory pool (no
// disk in hosted mode) and pushes, after every tick, the manifest plus only
// the chunks the receiver has not acknowledged: a successful hook call acks
// the manifest's closure, a failed one resets the acks so the next push
// resends everything the receiver might have dropped. The receiver folds each
// push (FoldBundle) into a self-contained bundle — one full chunk per tenant —
// which is what it stores, persists, and hands back to OpenShard, where it
// seeds the new host's pool and restores through restoreManifest.

// offerCheckpoint cuts the shard into its chunk pool and offers the bundle of
// unacknowledged chunks to Config.OnShardCheckpoint. No-op without a hook.
func (sh *shard) offerCheckpoint() error {
	if sh.cfg.OnShardCheckpoint == nil {
		return nil
	}
	data, closure, err := sh.buildBundle(sh.acked)
	if err != nil {
		return err
	}
	if err := sh.cfg.OnShardCheckpoint(sh.idx, sh.round, data); err != nil {
		// The push may have been lost: forget every ack so the next bundle
		// carries the full closure again.
		sh.acked = map[uint64]bool{}
		return fmt.Errorf("serve: shard %d checkpoint hook: %w", sh.idx, err)
	}
	// The receiver holds the closure now; chunks superseded by newer cuts are
	// no longer anyone's responsibility.
	sh.acked = closure
	sh.pool.Prune(closure)
	return nil
}

// buildBundle cuts the shard into its in-memory chunk pool (dirty tenants
// only; clean ones reuse their chunk) and encodes the manifest plus the slice
// of its closure outside acked. With acked nil the bundle is self-contained:
// the handoff form CloseShard returns. The closure is returned so the caller
// can ack it once the receiver holds the bundle.
func (sh *shard) buildBundle(acked map[uint64]bool) ([]byte, map[uint64]bool, error) {
	m := &ckptstore.Manifest{
		Schema: ckptstore.ManifestSchema,
		Shard:  sh.idx,
		Shards: sh.nshards,
		Round:  sh.round,
	}
	for _, name := range sh.order {
		tn := sh.tenants[name]
		if tn.dirty || tn.chunk.ID == 0 {
			if err := sh.putTenantChunk(tn); err != nil {
				return nil, nil, err
			}
		}
		m.Tenants = append(m.Tenants, ckptstore.TenantRef{
			Name:  name,
			Chunk: ckptstore.FormatChunkID(tn.chunk.ID),
			Chain: tn.chunk.Chain,
		})
	}
	manifest, err := ckptstore.EncodeManifest(m)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: shard %d manifest: %w", sh.idx, err)
	}
	roots, err := m.Roots()
	if err != nil {
		return nil, nil, err
	}
	closure, err := sh.pool.Closure(roots)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: shard %d bundle closure: %w", sh.idx, err)
	}
	unacked := make(map[uint64]bool, len(closure))
	for id := range closure {
		if !acked[id] {
			unacked[id] = true
		}
	}
	bundle, err := sh.pool.EncodeBundle(manifest, unacked)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: shard %d bundle: %w", sh.idx, err)
	}
	return bundle, closure, nil
}

// restoreBundle seeds the shard's chunk pool from a checkpoint bundle and
// restores the shard from the bundle's manifest, through the same
// restoreManifest a state-dir boot uses. Called from handleOpen, before the
// shard accepts work.
func (sh *shard) restoreBundle(data []byte) error {
	raw, err := sh.pool.AddBundle(data)
	if err != nil {
		return fmt.Errorf("serve: shard %d checkpoint: %w", sh.idx, err)
	}
	m, err := ckptstore.DecodeManifest(raw)
	if err != nil {
		return fmt.Errorf("serve: shard %d checkpoint: %w", sh.idx, err)
	}
	return sh.restoreManifest(m, newHashRing(sh.cfg.Shards), sh.pool)
}

// FoldBundle is the receiving side of the hosted checkpoint protocol. It
// validates a pushed bundle whose chunks resolve in the bundle itself or in
// pool — the chunks the sender may assume the receiver kept from earlier
// pushes — and folds it into a self-contained bundle: the manifest with every
// tenant pointing at one full chunk. The folded bundle is what a receiver
// stores, persists, and hands to OpenShard. next is pool plus the bundle's
// chunks, pruned to the manifest's closure: what the sender's next delta push
// may reference. pool itself is not modified, so a rejected push leaves the
// receiver exactly as it was, and concurrent folds may share one pool; a nil
// pool holds nothing.
//
// Each pushed chunk is hashed once, when the bundle is decoded; the fold
// takes the verified chunks into next and encodes its output from there.
//
// A bundle is rejected whole when it does not decode, pages a tenant out
// (hosted shards cannot evict), references a chunk neither it nor pool
// holds, or carries a tenant chunk that is not a well-formed tenant payload,
// names another tenant, was cut outside [0, manifest round], or records a
// decision history of the wrong length.
func FoldBundle(data []byte, pool *ckptstore.MemStore) (folded []byte, m *ckptstore.Manifest, next *ckptstore.MemStore, err error) {
	if pool == nil {
		next = ckptstore.NewMemStore(0)
	} else {
		next = pool.Clone()
	}
	raw, err := next.AddBundle(data)
	if err != nil {
		return nil, nil, nil, err
	}
	in, err := ckptstore.DecodeManifest(raw)
	if err != nil {
		return nil, nil, nil, err
	}
	m = &ckptstore.Manifest{
		Schema:         ckptstore.ManifestSchema,
		Shard:          in.Shard,
		Shards:         in.Shards,
		Round:          in.Round,
		PlacementEpoch: in.PlacementEpoch,
	}
	out := make(map[uint64]bool, len(in.Tenants))
	for i := range in.Tenants {
		ref := &in.Tenants[i]
		if ref.Evicted {
			return nil, nil, nil, fmt.Errorf("serve: bundle manifest pages out tenant %q (hosted shards cannot evict)", ref.Name)
		}
		r, err := ref.Ref()
		if err != nil {
			return nil, nil, nil, err
		}
		payload, depth, err := next.Resolve(r.ID)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("serve: folding tenant %q: %w", ref.Name, err)
		}
		if err := checkTenantChunk(ref.Name, payload, in.Round); err != nil {
			return nil, nil, nil, err
		}
		id := r.ID
		if depth > 0 {
			// A delta chain folds into one full chunk, pooled until the
			// output is encoded and pruned with the rest after it.
			full, err := next.Put(payload, ckptstore.Ref{})
			if err != nil {
				return nil, nil, nil, err
			}
			id = full.Ref.ID
		}
		out[id] = true
		m.Tenants = append(m.Tenants, ckptstore.TenantRef{Name: ref.Name, Chunk: ckptstore.FormatChunkID(id)})
	}
	manifest, err := ckptstore.EncodeManifest(m)
	if err != nil {
		return nil, nil, nil, err
	}
	if folded, err = next.EncodeBundle(manifest, out); err != nil {
		return nil, nil, nil, err
	}
	roots, err := in.Roots()
	if err != nil {
		return nil, nil, nil, err
	}
	closure, err := next.Closure(roots)
	if err != nil {
		return nil, nil, nil, err
	}
	next.Prune(closure)
	return folded, m, next, nil
}

// checkTenantChunk applies FoldBundle's per-tenant checks to one resolved
// chunk payload: the header checks every payload reader applies, and the
// structure of the rest, stream image included. It builds no scheduler;
// restoreManifest validates the state when the bundle is opened.
func checkTenantChunk(name string, payload []byte, round int64) error {
	ti, err := readTenantPayload(payload, name, round)
	if err != nil {
		return err
	}
	if err := stream.CheckBinary(ti.stream); err != nil {
		return fmt.Errorf("serve: tenant %q chunk: %w", name, err)
	}
	return nil
}

// padDecisions extends a restored tenant's recorded decision history from its
// chunk's round to the manifest's. A clean tenant keeps its chunk while the
// shard's round advances, and the live scheduler recorded one trivial
// decision for every round in between; the restored scheduler fast-forwards
// through those rounds without recording them. Histories that were not
// embedded in the chunk (no recording, or a decision log) stay empty.
func padDecisions(tn *tenant, from, to int64) {
	if len(tn.decisions) == 0 {
		return
	}
	for r := from; r < to; r++ {
		tn.decisions = append(tn.decisions, stream.Decision{Round: r - tn.epoch})
	}
}
