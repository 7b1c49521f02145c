package stream

import (
	"testing"
	"testing/quick"

	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/reduce"
	"rrsched/internal/workload"
)

// pushSequence feeds a whole Sequence through a streaming scheduler and
// returns the scheduler plus a reconstructed model.Schedule for auditing.
func pushSequence(t *testing.T, seq *model.Sequence, n int) (*Scheduler, *model.Schedule) {
	t.Helper()
	s, err := New(Config{Delta: seq.Delta(), Resources: n})
	if err != nil {
		t.Fatal(err)
	}
	sched := model.NewSchedule(n, 1)
	record := func(dec Decision) {
		for _, rc := range dec.Reconfigs {
			sched.AddReconfig(rc.Round, 0, rc.Resource, rc.To)
		}
		for _, e := range dec.Executions {
			sched.AddExec(e.Round, 0, e.Resource, e.JobID)
		}
	}
	// Push through the full horizon (matching the batch engine, which also
	// simulates every round up to the last deadline).
	for r := int64(0); r <= seq.Horizon(); r++ {
		dec, err := s.Push(r, seq.Request(r))
		if err != nil {
			t.Fatal(err)
		}
		record(dec)
	}
	return s, sched
}

func TestStreamMatchesBatchPipeline(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed: seed, Delta: 3, Colors: 6, Rounds: 128,
			MinDelayExp: 1, MaxDelayExp: 4, Load: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := reduce.RunVarBatch(seq, 8, core.NewDeltaLRUEDF())
		if err != nil {
			t.Fatal(err)
		}
		s, _ := pushSequence(t, seq, 8)
		if s.Cost() != batch.Cost {
			t.Errorf("seed %d: stream cost %v != batch cost %v", seed, s.Cost(), batch.Cost)
		}
	}
}

func TestStreamScheduleAudits(t *testing.T) {
	seq, err := workload.RandomGeneral(workload.RandomConfig{
		Seed: 9, Delta: 4, Colors: 8, Rounds: 256,
		MinDelayExp: 1, MaxDelayExp: 4, Load: 0.6, ZipfS: 1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, sched := pushSequence(t, seq, 8)
	cost, err := model.Audit(seq, sched)
	if err != nil {
		t.Fatalf("streamed schedule illegal: %v", err)
	}
	if cost != s.Cost() {
		t.Errorf("audited %v != scheduler meter %v", cost, s.Cost())
	}
	if s.Executed()+s.Dropped() != seq.NumJobs() {
		t.Errorf("executed %d + dropped %d != %d jobs", s.Executed(), s.Dropped(), seq.NumJobs())
	}
}

// TestStreamMatchesBatchProperty: exact cost agreement on random instances.
func TestStreamMatchesBatchProperty(t *testing.T) {
	f := func(seedRaw uint8) bool {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed: int64(seedRaw), Delta: 2, Colors: 4, Rounds: 64,
			MinDelayExp: 1, MaxDelayExp: 3, Load: 0.7,
		})
		if err != nil || seq.NumJobs() == 0 {
			return true
		}
		batch, err := reduce.RunVarBatch(seq, 8, core.NewDeltaLRUEDF())
		if err != nil {
			t.Log(err)
			return false
		}
		s, _ := pushSequence(t, seq, 8)
		if s.Cost() != batch.Cost {
			t.Logf("seed %d: stream %v != batch %v", seedRaw, s.Cost(), batch.Cost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStreamSkippedRounds(t *testing.T) {
	// Pushing round 0 then round 50 directly must process the gap.
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := s.Push(0, []model.Job{{ID: 0, Color: 0, Arrival: 0, Delay: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Executions)+len(dec.Dropped) != 0 || s.Pending() != 1 {
		t.Fatalf("round 0 resolved job 0 (%+v); the gap below must", dec)
	}
	dec, err = s.Push(50, []model.Job{{ID: 1, Color: 0, Arrival: 50, Delay: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 was resolved in a fast-forwarded round, whose Decision is
	// discarded: Resolved lends only round 50's jobs, as its Decision lists.
	dropped, executed := s.Resolved()
	if len(dropped) != len(dec.Dropped) || len(executed) != len(dec.Executions) || s.Pending() != 1-len(dropped)-len(executed) {
		t.Fatalf("after the gap: resolved %v dropped and %v executed, Pending %d, for decision %+v", dropped, executed, s.Pending(), dec)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if s.Executed()+s.Dropped() != 2 {
		t.Errorf("accounted %d of 2 jobs", s.Executed()+s.Dropped())
	}
}

func TestStreamRejections(t *testing.T) {
	if _, err := New(Config{Delta: 0, Resources: 4}); err == nil {
		t.Error("Delta 0 accepted")
	}
	if _, err := New(Config{Delta: 1, Resources: 6}); err == nil {
		t.Error("n=6 (not multiple of 4) accepted")
	}
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(3, nil); err == nil {
		t.Error("past round accepted")
	}
	if _, err := s.Push(6, []model.Job{{ID: 9, Color: 0, Arrival: 2, Delay: 2}}); err == nil {
		t.Error("mismatched arrival accepted")
	}
	if _, err := s.Push(7, []model.Job{{ID: 10, Color: 0, Arrival: 7, Delay: 0}}); err == nil {
		t.Error("invalid job accepted")
	}
	if _, err := s.Push(8, []model.Job{{ID: 11, Color: 0, Arrival: 8, Delay: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(9, []model.Job{{ID: 12, Color: 0, Arrival: 9, Delay: 4}}); err == nil {
		t.Error("conflicting delay bound accepted")
	}
}

func TestStreamDecisionsAreCausal(t *testing.T) {
	// The decisions for rounds < r must be identical whether or not jobs
	// arrive at round r: push the same prefix into two schedulers and
	// diverge at the end.
	prefix := func() (*Scheduler, []Decision) {
		s, err := New(Config{Delta: 2, Resources: 8})
		if err != nil {
			t.Fatal(err)
		}
		var decs []Decision
		id := int64(0)
		for r := int64(0); r < 32; r++ {
			var jobs []model.Job
			if r%4 == 0 {
				jobs = append(jobs, model.Job{ID: id, Color: model.Color(r % 3), Arrival: r, Delay: 4})
				id++
			}
			dec, err := s.Push(r, jobs)
			if err != nil {
				t.Fatal(err)
			}
			decs = append(decs, dec)
		}
		return s, decs
	}
	_, a := prefix()
	sB, b := prefix()
	// Diverge: feed a burst into B only.
	burst := make([]model.Job, 10)
	for i := range burst {
		burst[i] = model.Job{ID: 1000 + int64(i), Color: 5, Arrival: 32, Delay: 8}
	}
	if _, err := sB.Push(32, burst); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Reconfigs) != len(b[i].Reconfigs) || len(a[i].Executions) != len(b[i].Executions) {
			t.Fatalf("round %d decisions differ despite identical prefixes", i)
		}
	}
}
