package obs

// Incremental-checkpoint metric names: the vocabulary of the chunk store's
// dirty cuts and cold-tenant paging (internal/ckptstore wired into the serve
// tier).
// Fixed here, like the scheduler and wire vocabularies, so dashboards can rely
// on one name set regardless of which daemon emits it.
const (
	// MetricCkptDirtyTenants gauges how many resident tenants have state not
	// yet captured by a committed chunk — the work the next cut will pay for.
	MetricCkptDirtyTenants = "ckpt_dirty_tenants"
	// MetricCkptResidentTenants / MetricCkptEvictedTenants gauge the paging
	// split: tenants held in memory vs. paged out to the chunk store.
	MetricCkptResidentTenants = "ckpt_resident_tenants"
	MetricCkptEvictedTenants  = "ckpt_evicted_tenants"
	// MetricCkptChunksWritten counts chunks whose bytes actually landed;
	// MetricCkptChunksDeduped counts puts answered by an existing identical
	// chunk.
	MetricCkptChunksWritten = "ckpt_chunks_written_total"
	MetricCkptChunksDeduped = "ckpt_chunks_deduped_total"
	// MetricCkptChunksFolded named the count of delta chains folded back
	// into full chunks. No daemon registers it.
	//
	// Deprecated: every chunk is a full image, so nothing folds. The name
	// stays only because the end-to-end benchmark (_perfbench/layers.go)
	// still reads it; it finds no instrument and reports 0.
	MetricCkptChunksFolded = "ckpt_chunks_folded_total"
	// MetricCkptChunkBytes counts encoded bytes of written chunks.
	MetricCkptChunkBytes = "ckpt_chunk_bytes_total"
	// MetricCkptFaultIns counts cold tenants faulted back in on submission,
	// and MetricCkptFaultInNs is the latency of those fault-ins (read the
	// tenant's chunk, rebuild the tenant).
	MetricCkptFaultIns  = "ckpt_fault_ins_total"
	MetricCkptFaultInNs = "ckpt_fault_in_ns"
	// MetricCkptDecisionLogBytes gauges the record bytes a shard's decision
	// log holds, sealed segments and open tail, as of the last cut or
	// restore.
	MetricCkptDecisionLogBytes = "ckpt_decision_log_bytes"
)

// CkptMetrics is the pre-wired handle set for one shard's incremental
// checkpoint instrumentation.
type CkptMetrics struct {
	DirtyTenants    *Gauge
	ResidentTenants *Gauge
	EvictedTenants  *Gauge
	ChunksWritten   *Counter
	ChunksDeduped   *Counter
	ChunkBytes      *Counter
	FaultIns        *Counter
	FaultInNs       *Histogram
	DecisionLogB    *Gauge
}

// NewCkptMetrics registers the incremental-checkpoint metric set on the
// registry and returns the handles (get-or-create semantics, like
// NewSchedulerMetrics).
func NewCkptMetrics(r *Registry) (*CkptMetrics, error) {
	cm := &CkptMetrics{}
	var err error
	if cm.DirtyTenants, err = r.Gauge(MetricCkptDirtyTenants); err != nil {
		return nil, err
	}
	if cm.ResidentTenants, err = r.Gauge(MetricCkptResidentTenants); err != nil {
		return nil, err
	}
	if cm.EvictedTenants, err = r.Gauge(MetricCkptEvictedTenants); err != nil {
		return nil, err
	}
	if cm.ChunksWritten, err = r.Counter(MetricCkptChunksWritten); err != nil {
		return nil, err
	}
	if cm.ChunksDeduped, err = r.Counter(MetricCkptChunksDeduped); err != nil {
		return nil, err
	}
	if cm.ChunkBytes, err = r.Counter(MetricCkptChunkBytes); err != nil {
		return nil, err
	}
	if cm.FaultIns, err = r.Counter(MetricCkptFaultIns); err != nil {
		return nil, err
	}
	// 1 µs to ~17 s in powers of four: a fault-in reads one chunk, then
	// rebuilds one tenant.
	if cm.FaultInNs, err = r.Histogram(MetricCkptFaultInNs, ExpBuckets(1024, 4, 13)); err != nil {
		return nil, err
	}
	if cm.DecisionLogB, err = r.Gauge(MetricCkptDecisionLogBytes); err != nil {
		return nil, err
	}
	return cm, nil
}
