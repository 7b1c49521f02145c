package perf

import (
	"strings"
	"testing"
)

// mustScenario returns the named scenario from the matrix.
func mustScenario(t *testing.T, name string) Scenario {
	t.Helper()
	for _, s := range Scenarios() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("scenario %q not in the matrix", name)
	return Scenario{}
}

// TestCkptScenariosRegistered pins the checkpoint-store rows of the matrix:
// the full/dirty cut pair at both tenant counts and dirty fractions, the
// fault-in row, the manifest codec row, and the dispatcher's fold of a
// fleet-shaped push.
func TestCkptScenariosRegistered(t *testing.T) {
	want := []string{
		"ckpt/cut/full/n8", "ckpt/cut/full/n512",
		"ckpt/cut/dirty/n8/dirty1", "ckpt/cut/dirty/n8/dirty100",
		"ckpt/cut/dirty/n512/dirty1", "ckpt/cut/dirty/n512/dirty100",
		"ckpt/manifest/n8", "ckpt/manifest/n512",
		"ckpt/faultin",
		"ckpt/fold/fleet",
	}
	for _, name := range want {
		s := mustScenario(t, name)
		if s.Doc == "" || s.Rounds < 1 {
			t.Errorf("%s: doc %q rounds %d", name, s.Doc, s.Rounds)
		}
	}
}

// TestCkptScenariosRun smoke-runs every checkpoint row single-shot; the op
// closures must be re-runnable (Measure repeats them to convergence).
func TestCkptScenariosRun(t *testing.T) {
	for _, s := range Scenarios() {
		if !strings.HasPrefix(s.Name, "ckpt/") {
			continue
		}
		op, err := s.Setup()
		if err != nil {
			t.Fatalf("%s: setup: %v", s.Name, err)
		}
		for i := 0; i < 3; i++ {
			if err := op(); err != nil {
				t.Fatalf("%s: op run %d: %v", s.Name, i, err)
			}
		}
	}
}

// TestDirtyCutBeatsFullCutAtLowDirty is the headline claim of the
// incremental checkpoint store, asserted: with 1% of 512 tenants dirty, a
// dirty cut must be at least 5x faster than chunking the shard from
// scratch. The measured ratio is ~15-20x (the dirty cut still pays the full
// manifest encode, which bounds it), so the 5x floor holds on any hardware;
// -short skips the two 1-second measurements.
func TestDirtyCutBeatsFullCutAtLowDirty(t *testing.T) {
	if testing.Short() {
		t.Skip("two benchmark measurements; skipped under -short")
	}
	full, err := Measure(mustScenario(t, "ckpt/cut/full/n512"))
	if err != nil {
		t.Fatalf("measuring full cut: %v", err)
	}
	dirty, err := Measure(mustScenario(t, "ckpt/cut/dirty/n512/dirty1"))
	if err != nil {
		t.Fatalf("measuring dirty cut: %v", err)
	}
	if full.NsPerRound <= 0 || dirty.NsPerRound <= 0 {
		t.Fatalf("non-positive figures: full=%v dirty=%v", full.NsPerRound, dirty.NsPerRound)
	}
	ratio := full.NsPerRound / dirty.NsPerRound
	t.Logf("full cut %.1f ns/tenant, dirty cut (1%% dirty) %.1f ns/tenant: %.1fx", full.NsPerRound, dirty.NsPerRound, ratio)
	if ratio < 5 {
		t.Fatalf("dirty cut at 1%% dirty is only %.2fx faster than a full cut, want >= 5x", ratio)
	}
}
