package obs

import "testing"

// TestCkptMetricsRegistersVocabulary pins the incremental-checkpoint metric
// set: every instrument registers under its fixed name, get-or-create is
// idempotent, and a shape conflict surfaces instead of splitting the
// vocabulary.
func TestCkptMetricsRegistersVocabulary(t *testing.T) {
	r := NewRegistry()
	cm, err := NewCkptMetrics(r)
	if err != nil {
		t.Fatalf("NewCkptMetrics: %v", err)
	}
	cm.DirtyTenants.Set(3)
	cm.ResidentTenants.Set(10)
	cm.EvictedTenants.Set(7)
	cm.ChunksWritten.Add(5)
	cm.ChunksDeduped.Add(2)
	cm.ChunkBytes.Add(4096)
	cm.FaultIns.Add(4)
	cm.FaultInNs.Observe(2048)
	cm.DecisionLogB.Set(1 << 16)

	snap := r.Snapshot()
	for name, want := range map[string]int64{
		MetricCkptChunksWritten: 5,
		MetricCkptChunksDeduped: 2,
		MetricCkptChunkBytes:    4096,
		MetricCkptFaultIns:      4,
	} {
		if got, ok := snap.Counter(name); !ok || got != want {
			t.Errorf("%s = %d,%v want %d,true", name, got, ok, want)
		}
	}
	for name, want := range map[string]int64{
		MetricCkptDirtyTenants:     3,
		MetricCkptResidentTenants:  10,
		MetricCkptEvictedTenants:   7,
		MetricCkptDecisionLogBytes: 1 << 16,
	} {
		// Snapshot.Counter reads gauges too (same scalar shape).
		if got, ok := snap.Counter(name); !ok || got != want {
			t.Errorf("%s = %d,%v want %d,true", name, got, ok, want)
		}
	}
	hs, ok := snap.Histogram(MetricCkptFaultInNs)
	if !ok || hs.Count != 1 || hs.Sum != 2048 {
		t.Errorf("%s = %+v,%v want count=1 sum=2048", MetricCkptFaultInNs, hs, ok)
	}

	cm2, err := NewCkptMetrics(r)
	if err != nil {
		t.Fatalf("second NewCkptMetrics: %v", err)
	}
	if cm2.ChunksWritten != cm.ChunksWritten || cm2.FaultInNs != cm.FaultInNs {
		t.Error("NewCkptMetrics is not get-or-create: handles differ")
	}

	bad := NewRegistry()
	if _, err := bad.Counter(MetricCkptDirtyTenants); err != nil {
		t.Fatalf("seeding conflicting counter: %v", err)
	}
	if _, err := NewCkptMetrics(bad); err == nil {
		t.Error("NewCkptMetrics accepted a registry with a conflicting instrument")
	}
}
