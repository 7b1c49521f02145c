package core_test

import (
	"math/rand"
	"testing"

	"rrsched/internal/core"
	"rrsched/internal/sim"
	"rrsched/internal/workload"
)

// TestSuperEpochProperties checks the Section 3.4 accounting on random
// batched inputs, built the way experiment E13 builds its inputs but with n,
// Δ, the colors, the delay exponents, the load and rate limiting drawn at
// random. Three facts must hold on every run:
//   - Corollary 3.2: no color overlaps one super-epoch with more than 3
//     epochs;
//   - a super-epoch completes only once Threshold colors have updated their
//     timestamps in it, so Completed·Threshold ≤ TimestampUpdates;
//   - E13's bound: epochs ≤ 3·(Completed+1)·colors.
func TestSuperEpochProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	worst, completed := 0, int64(0)
	for i := 0; i < 360; i++ {
		minExp := uint(rng.Intn(3))
		cfg := workload.RandomConfig{
			Seed:        int64(i + 1),
			Delta:       1 + rng.Int63n(8),
			Colors:      1 + rng.Intn(24),
			Rounds:      64 + rng.Int63n(448),
			MinDelayExp: minExp,
			MaxDelayExp: minExp + uint(rng.Intn(4)),
			Load:        0.1 + 1.4*rng.Float64(),
			RateLimited: rng.Intn(2) == 0,
		}
		n := 4 * (1 + rng.Intn(8))
		seq, err := workload.RandomBatched(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := core.NewDeltaLRUEDF(core.WithSuperEpochs())
		if _, err := sim.Run(sim.Env{Seq: seq, Resources: n, Replication: 2, Speed: 1}, p); err != nil {
			t.Fatalf("input %d (%+v, n=%d): %v", i, cfg, n, err)
		}
		tr := p.Tracker()
		se := tr.SuperEpochs()
		if se.MaxEpochOverlap > 3 {
			t.Errorf("input %d (%+v, n=%d): a color overlaps one super-epoch with %d epochs, Corollary 3.2 allows 3", i, cfg, n, se.MaxEpochOverlap)
		}
		if se.Completed*int64(se.Threshold) > se.TimestampUpdates {
			t.Errorf("input %d (%+v, n=%d): %d super-epochs of threshold %d completed on %d timestamp updates", i, cfg, n, se.Completed, se.Threshold, se.TimestampUpdates)
		}
		if bound := 3 * (se.Completed + 1) * int64(len(seq.Colors())); tr.NumEpochs() > bound {
			t.Errorf("input %d (%+v, n=%d): %d epochs, over 3·(%d+1)·%d = %d", i, cfg, n, tr.NumEpochs(), se.Completed, len(seq.Colors()), bound)
		}
		worst = max(worst, se.MaxEpochOverlap)
		completed += se.Completed
	}
	// The inputs must reach the corollary's cap, or the first check says
	// nothing.
	if worst < 3 || completed == 0 {
		t.Errorf("the inputs reach a worst overlap of %d and complete %d super-epochs; they do not exercise the accounting", worst, completed)
	}
}
