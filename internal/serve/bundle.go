package serve

import (
	"fmt"

	"rrsched/internal/ckptstore"
	"rrsched/internal/stream"
)

// Hosted-tier checkpoints are ckptstore bundles: the shard's manifest plus
// content-addressed chunks, one full chunk per tenant plus the decision log's
// segments when the service records. A shard keeps its chunks in an
// in-memory pool (no disk in hosted mode) and pushes, after every tick, the
// manifest plus only the chunks the receiver has not acknowledged — one per
// dirty tenant, and the log's tail and newly sealed segments: a successful
// hook call acks the manifest's chunks, a failed one resets the acks so the
// next push resends everything the receiver might have dropped. The receiver validates each
// push (FoldBundle) and keeps it as a self-contained bundle, the manifest
// with every chunk it names, which is what it stores, persists, and hands
// back to OpenShard, where it seeds the new host's pool and restores through
// restoreManifest.

// offerCheckpoint cuts the shard into its chunk pool and offers the bundle of
// unacknowledged chunks to Config.OnShardCheckpoint. No-op without a hook.
func (sh *shard) offerCheckpoint() error {
	if sh.cfg.OnShardCheckpoint == nil {
		return nil
	}
	data, live, err := sh.buildBundle(sh.acked)
	if err != nil {
		return err
	}
	if err := sh.cfg.OnShardCheckpoint(sh.idx, sh.round, data); err != nil {
		// The push may have been lost: forget every ack so the next bundle
		// carries every chunk again.
		sh.acked = map[uint64]bool{}
		return fmt.Errorf("serve: shard %d checkpoint hook: %w", sh.idx, err)
	}
	// The receiver holds the manifest's chunks now; chunks superseded by
	// newer cuts are no longer anyone's responsibility.
	sh.acked = live
	sh.pool.Prune(live)
	return nil
}

// buildBundle cuts the shard into its in-memory chunk pool (cutManifest) and
// encodes the manifest plus those of its chunks outside acked. With acked nil
// the bundle is self-contained: the handoff form CloseShard returns. The
// manifest's chunk set is returned so the caller can ack it once the receiver
// holds the bundle. A hosted shard's placement epoch is always 0.
func (sh *shard) buildBundle(acked map[uint64]bool) ([]byte, map[uint64]bool, error) {
	manifest, roots, err := sh.cutManifest()
	if err != nil {
		return nil, nil, err
	}
	live := make(map[uint64]bool, len(roots))
	unacked := make(map[uint64]bool)
	for _, id := range roots {
		live[id] = true
		if !acked[id] {
			unacked[id] = true
		}
	}
	bundle, err := sh.pool.EncodeBundle(manifest, unacked)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: shard %d bundle: %w", sh.idx, err)
	}
	return bundle, live, nil
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
	return sh.restoreManifest(m, newHashRing(sh.cfg.Shards))
}

// FoldBundle is the receiving side of the hosted checkpoint protocol, and it
// is validation: it admits a pushed bundle into a clone of pool — the chunks
// the sender may assume the receiver kept from earlier pushes — checks the
// chunk of every tenant the manifest names, and encodes the manifest with
// those chunks as a self-contained bundle. That bundle is what a receiver
// stores, persists, and hands to OpenShard. next is the clone pruned to the
// manifest's chunks: what the sender's next push may reference. pool itself
// is not modified, so a rejected push leaves the receiver exactly as it was,
// and concurrent folds may share one pool; a nil pool holds nothing.
//
// Each pushed chunk is hashed once, when the bundle is decoded; the output is
// encoded from the verified chunks in next. A log segment is checked record
// by record (checkLog) the first time a stored checkpoint names it, that is
// when pool does not hold it yet; a sealed segment that every later push
// names again costs only a look at its header.
//
// A bundle is rejected whole when it does not decode, pages a tenant out
// (hosted shards cannot evict), references a chunk neither it nor pool
// holds, carries a tenant chunk that is not a well-formed tenant payload,
// names another tenant or was cut outside [0, manifest round], or names a
// log chunk that is not a record stream or records a tenant the manifest
// does not name, a malformed decision, or a round at or after the
// manifest's.
func FoldBundle(data []byte, pool *ckptstore.MemStore) (folded []byte, m *ckptstore.Manifest, next *ckptstore.MemStore, err error) {
	if pool == nil {
		next = ckptstore.NewMemStore()
	} else {
		next = pool.Clone()
	}
	raw, err := next.AddBundle(data)
	if err != nil {
		return nil, nil, nil, err
	}
	if m, err = ckptstore.DecodeManifest(raw); err != nil {
		return nil, nil, nil, err
	}
	live := make(map[uint64]bool, len(m.Tenants))
	for i := range m.Tenants {
		ref := &m.Tenants[i]
		if ref.Evicted {
			return nil, nil, nil, fmt.Errorf("serve: bundle manifest pages out tenant %q (hosted shards cannot evict)", ref.Name)
		}
		id, err := ref.ChunkID()
		if err != nil {
			return nil, nil, nil, err
		}
		payload, err := next.ReadChunk(id)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("serve: folding tenant %q: %w", ref.Name, err)
		}
		if err := checkTenantChunk(ref.Name, payload, m.Round); err != nil {
			return nil, nil, nil, fmt.Errorf("%w (chunk %s)", err, ref.Chunk)
		}
		live[id] = true
	}
	ids, err := m.LogIDs()
	if err != nil {
		return nil, nil, nil, err
	}
	var check func(string, int64, []byte) error
	for _, id := range ids {
		seg, err := next.ReadChunk(id)
		switch {
		case err != nil:
		case pool != nil && pool.Has(id):
			if !ckptstore.IsSegment(seg) {
				err = fmt.Errorf("ckptstore: not a decision log segment")
			}
		default:
			if check == nil {
				check = checkLog(m)
			}
			err = ckptstore.ReadSegment(seg, check)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("serve: folding decision log segment %016x: %w", id, err)
		}
		live[id] = true
	}
	manifest, err := ckptstore.EncodeManifest(m)
	if err != nil {
		return nil, nil, nil, err
	}
	if folded, err = next.EncodeBundle(manifest, live); err != nil {
		return nil, nil, nil, err
	}
	next.Prune(live)
	return folded, m, next, nil
}

// checkTenantChunk applies FoldBundle's per-tenant checks to one chunk
// payload: the header checks every payload reader applies, and the
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
