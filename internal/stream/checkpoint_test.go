package stream

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rrsched/internal/model"
	"rrsched/internal/workload"
)

func decisionBytes(t *testing.T, decs []Decision) []byte {
	t.Helper()
	b, err := json.Marshal(decs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotRestoreDecisionIdentical is the kill-and-restore test: a run
// interrupted by Snapshot/Restore at an arbitrary round must produce a
// decision trace byte-identical to the uninterrupted run on the same pushes.
func TestSnapshotRestoreDecisionIdentical(t *testing.T) {
	seq, err := workload.RandomGeneral(workload.RandomConfig{
		Seed: 7, Delta: 4, Colors: 8, Rounds: 200,
		MinDelayExp: 1, MaxDelayExp: 4, Load: 0.6, ZipfS: 1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	horizon := seq.Horizon()

	for _, killAt := range []int64{0, 1, 17, 63, 100, horizon - 1} {
		// Uninterrupted run.
		ref, err := New(Config{Delta: seq.Delta(), Resources: 8})
		if err != nil {
			t.Fatal(err)
		}
		var refDecs []Decision
		for r := int64(0); r <= horizon; r++ {
			dec, err := ref.Push(r, seq.Request(r))
			if err != nil {
				t.Fatal(err)
			}
			refDecs = append(refDecs, dec)
		}

		// Interrupted run: push to killAt, snapshot, discard the scheduler
		// ("kill"), restore, and continue.
		a, err := New(Config{Delta: seq.Delta(), Resources: 8})
		if err != nil {
			t.Fatal(err)
		}
		var decs []Decision
		for r := int64(0); r <= killAt; r++ {
			dec, err := a.Push(r, seq.Request(r))
			if err != nil {
				t.Fatal(err)
			}
			decs = append(decs, dec)
		}
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		a = nil
		b, err := Restore(snap)
		if err != nil {
			t.Fatalf("kill at %d: restore: %v", killAt, err)
		}
		for r := killAt + 1; r <= horizon; r++ {
			dec, err := b.Push(r, seq.Request(r))
			if err != nil {
				t.Fatalf("kill at %d: push round %d: %v", killAt, r, err)
			}
			decs = append(decs, dec)
		}

		if !bytes.Equal(decisionBytes(t, refDecs), decisionBytes(t, decs)) {
			t.Fatalf("kill at %d: resumed decision trace differs from uninterrupted run", killAt)
		}
		if ref.Cost() != b.Cost() {
			t.Fatalf("kill at %d: resumed cost %v != uninterrupted %v", killAt, ref.Cost(), b.Cost())
		}
		if ref.Executed() != b.Executed() || ref.Dropped() != b.Dropped() {
			t.Fatalf("kill at %d: resumed counters (%d,%d) != uninterrupted (%d,%d)",
				killAt, b.Executed(), b.Dropped(), ref.Executed(), ref.Dropped())
		}

		// The final states must also snapshot identically.
		refSnap, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		endSnap, err := b.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refSnap, endSnap) {
			t.Fatalf("kill at %d: final snapshots differ", killAt)
		}
	}
}

// TestRestoreAtDeadlineBoundaryDropsIdentical pins the deadline-drop index
// across a checkpoint: an overloaded color whose jobs must expire is pushed,
// the scheduler is killed and restored right around the deadline rounds, and
// the resumed run must drop exactly the same jobs as the uninterrupted one —
// i.e. the restored engine rebuilds its deadline buckets, it does not lose
// or duplicate pending expirations.
func TestRestoreAtDeadlineBoundaryDropsIdentical(t *testing.T) {
	const (
		delta   = 4
		n       = 8
		rounds  = 48
		perPush = 40 // far beyond n per delay window: guaranteed drops
	)
	pushes := make([][]model.Job, rounds)
	id := int64(0)
	for r := int64(0); r < rounds; r += 8 {
		for i := 0; i < perPush; i++ {
			pushes[r] = append(pushes[r], model.Job{ID: id, Color: 1, Arrival: r, Delay: 8})
			id++
		}
	}

	ref, err := New(Config{Delta: delta, Resources: n})
	if err != nil {
		t.Fatal(err)
	}
	var refDecs []Decision
	for r := int64(0); r < rounds; r++ {
		dec, err := ref.Push(r, pushes[r])
		if err != nil {
			t.Fatal(err)
		}
		refDecs = append(refDecs, dec)
	}
	if _, err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	if ref.Dropped() == 0 {
		t.Fatal("overload scenario dropped nothing; the test exercises no deadlines")
	}

	// Kill/restore straddling the first deadline rounds (jobs of the round-0
	// burst expire at round 8) and a later steady-state boundary.
	for _, killAt := range []int64{6, 7, 8, 9, 23} {
		s, err := New(Config{Delta: delta, Resources: n})
		if err != nil {
			t.Fatal(err)
		}
		var decs []Decision
		for r := int64(0); r <= killAt; r++ {
			dec, err := s.Push(r, pushes[r])
			if err != nil {
				t.Fatal(err)
			}
			decs = append(decs, dec)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(snap)
		if err != nil {
			t.Fatalf("kill at %d: %v", killAt, err)
		}
		for r := killAt + 1; r < rounds; r++ {
			dec, err := restored.Push(r, pushes[r])
			if err != nil {
				t.Fatalf("kill at %d: push round %d: %v", killAt, r, err)
			}
			decs = append(decs, dec)
		}
		if _, err := restored.Drain(); err != nil {
			t.Fatal(err)
		}
		if restored.Dropped() != ref.Dropped() || restored.Executed() != ref.Executed() {
			t.Errorf("kill at %d: resumed (exec %d, drop %d) != uninterrupted (exec %d, drop %d)",
				killAt, restored.Executed(), restored.Dropped(), ref.Executed(), ref.Dropped())
		}
		if !bytes.Equal(decisionBytes(t, refDecs), decisionBytes(t, decs)) {
			t.Errorf("kill at %d: decision trace differs across the deadline boundary", killAt)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	seq, err := workload.RandomGeneral(workload.RandomConfig{
		Seed: 3, Delta: 3, Colors: 5, Rounds: 64,
		MinDelayExp: 1, MaxDelayExp: 3, Load: 0.7,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := pushSequence(t, seq, 8)
	a, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two snapshots of the same scheduler differ")
	}
}

func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(0, []model.Job{{ID: 0, Color: 0, Arrival: 0, Delay: 2}}); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(snap); err != nil {
		t.Fatalf("round-trip of a valid snapshot failed: %v", err)
	}

	// warm has inner colors, cached inner colors and tracker state for the
	// inner-color cases to corrupt.
	for r := int64(1); r < 4; r++ {
		if _, err := s.Push(r, []model.Job{{ID: 2 * r, Color: 0, Arrival: r, Delay: 2}, {ID: 2*r + 1, Color: 1, Arrival: r, Delay: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	corruptSnap := func(base []byte, mutate func(map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(base, &m); err != nil {
			t.Fatal(err)
		}
		mutate(m)
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	corrupt := func(mutate func(map[string]any)) []byte { return corruptSnap(snap, mutate) }
	corruptWarm := func(mutate func(map[string]any)) []byte { return corruptSnap(warm, mutate) }
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"truncated", snap[:len(snap)/2], "decoding checkpoint"},
		{"not json", []byte("ceci n'est pas un checkpoint"), "decoding checkpoint"},
		{"bad version", corrupt(func(m map[string]any) { m["version"] = 99.0 }), "version"},
		{"bad delta", corrupt(func(m map[string]any) { m["delta"] = -1.0 }), "Delta"},
		{"bad resources", corrupt(func(m map[string]any) { m["resources"] = 3.0 }), "multiple of 4"},
		{"negative round", corrupt(func(m map[string]any) { m["round"] = -5.0 }), "negative round"},
		{"accounting", corrupt(func(m map[string]any) { m["executed"] = 100.0 }), "accounting"},
		// A count the pending queues cannot back would leave Drain waiting
		// for jobs that are not there.
		{"pending count", corrupt(func(m map[string]any) { m["pushed_jobs"] = m["pushed_jobs"].(float64) + 1 }), "accounting says"},
		{"loc mismatch", corrupt(func(m map[string]any) { m["loc_color"] = []any{} }), "locations"},
		{"no tracker", corrupt(func(m map[string]any) {
			inner := m["inner"].(map[string]any)
			inner["tracker"] = nil
		}), "tracker"},
		// Inner colors index dense per-color slices: one at or past
		// len(to_outer) is refused wherever it appears, so it can neither
		// crash a later Push nor size an allocation.
		{"inner location color out of range", corruptWarm(func(m map[string]any) {
			inner := m["inner"].(map[string]any)
			inner["loc_color"].([]any)[0] = 999.0
		}), "inner location 0 holds color c999"},
		{"inner pending color out of range", corruptWarm(func(m map[string]any) {
			inner := m["inner"].(map[string]any)
			inner["pending"] = []any{map[string]any{"color": 999.0, "deadlines": []any{3.0}}}
		}), "inner pending color c999"},
		{"cached color out of range", corruptWarm(func(m map[string]any) {
			inner := m["inner"].(map[string]any)
			inner["color_locs"].([]any)[0].(map[string]any)["color"] = 999.0
		}), "caches color c999"},
		{"cached color on no location", corruptWarm(func(m map[string]any) {
			inner := m["inner"].(map[string]any)
			inner["color_locs"].([]any)[0].(map[string]any)["locs"] = []any{}
		}), "on no location"},
		// Each inner color is one subcolor key: a second key for inner
		// color 0 (inner color 1 then has none) is refused.
		{"inner color under two subcolor keys", corruptWarm(func(m map[string]any) {
			subs := m["inner"].(map[string]any)["subcolors"].([]any)
			first := subs[0].(map[string]any)
			subs[1] = map[string]any{"outer": first["outer"], "bucket": 5.0, "inner": first["inner"]}
		}), "repeats subcolor c0"},
		{"tracker color out of range", corruptWarm(func(m map[string]any) {
			tr := m["inner"].(map[string]any)["tracker"].(map[string]any)
			tr["colors"] = append(tr["colors"].([]any), map[string]any{"color": 2e9, "delay": 1.0, "cnt": 0.0, "deadline": 0.0, "eligible": false})
		}), "tracker color c2000000000"},
		// Release jobs feed the inner simulation unchecked at their round: a
		// bad one must be refused here, not panic or misschedule later.
		{"release job with delay 0", corruptWarm(func(m map[string]any) {
			releaseJob(m, 0)["delay"] = 0.0
		}), "non-positive delay bound"},
		{"release job delay disagrees with its color", corruptWarm(func(m map[string]any) {
			releaseJob(m, 0)["delay"] = 4.0
		}), "registers 2"},
		{"release job under another round", corruptWarm(func(m map[string]any) {
			m["releases"].([]any)[0].(map[string]any)["round"] = 5.0
		}), "it releases at 4"},
		{"release round before the checkpoint round", corruptWarm(func(m map[string]any) {
			m["releases"].([]any)[0].(map[string]any)["round"] = 3.0
			for i := range m["releases"].([]any)[0].(map[string]any)["jobs"].([]any) {
				releaseJob(m, i)["arrival"] = 2.0
			}
		}), "precedes the checkpoint round"},
		{"release job id repeats", corruptWarm(func(m map[string]any) {
			releaseJob(m, 1)["id"] = releaseJob(m, 0)["id"]
		}), "repeats release job id"},
	}
	for _, c := range cases {
		if _, err := Restore(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Restore = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// releaseJob returns job i of the first release round of a checkpoint
// decoded into generic JSON.
func releaseJob(m map[string]any, i int) map[string]any {
	return m["releases"].([]any)[0].(map[string]any)["jobs"].([]any)[i].(map[string]any)
}

// TestRestoreBinaryRejectsCorruptReleases runs the release-job refusals
// through the binary codec: both codecs share fromImage, so an image with a
// bad release job is refused the same way a snapshot is.
func TestRestoreBinaryRejectsCorruptReleases(t *testing.T) {
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 4; r++ {
		if _, err := s.Push(r, []model.Job{{ID: 2 * r, Color: 0, Arrival: r, Delay: 2}, {ID: 2*r + 1, Color: 1, Arrival: r, Delay: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	img, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(cp *checkpoint)) []byte {
		cp, err := decodeImage(img)
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.Releases) != 1 || len(cp.Releases[0].Jobs) != 2 {
			t.Fatalf("fixture releases %+v, want one round of two jobs", cp.Releases)
		}
		mutate(cp)
		return appendImage(nil, cp)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"delay 0", corrupt(func(cp *checkpoint) { cp.Releases[0].Jobs[0].Delay = 0 }), "non-positive delay bound"},
		{"delay disagrees", corrupt(func(cp *checkpoint) { cp.Releases[0].Jobs[0].Delay = 4 }), "registers 2"},
		{"black color", corrupt(func(cp *checkpoint) { cp.Releases[0].Jobs[0].Color = model.Black }), "black"},
		{"wrong round", corrupt(func(cp *checkpoint) { cp.Releases[0].Round = 5 }), "it releases at 4"},
		{"before checkpoint", corrupt(func(cp *checkpoint) {
			cp.Releases[0].Round = 3
			for i := range cp.Releases[0].Jobs {
				cp.Releases[0].Jobs[i].Arrival = 2
			}
		}), "precedes the checkpoint round"},
		{"repeated id", corrupt(func(cp *checkpoint) { cp.Releases[0].Jobs[1].ID = cp.Releases[0].Jobs[0].ID }), "repeats release job id"},
	} {
		if _, err := RestoreBinary(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RestoreBinary = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

func TestPushRejectsDuplicateAndLateJobs(t *testing.T) {
	s, err := New(Config{Delta: 2, Resources: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(0, []model.Job{
		{ID: 0, Color: 0, Arrival: 0, Delay: 8},
		{ID: 0, Color: 0, Arrival: 0, Delay: 8},
	}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("same-batch duplicate accepted: %v", err)
	}
	if _, err := s.Push(0, []model.Job{{ID: 0, Color: 0, Arrival: 0, Delay: 8}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(1, []model.Job{{ID: 0, Color: 0, Arrival: 1, Delay: 8}}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("in-flight duplicate accepted: %v", err)
	}
	if _, err := s.Push(0, nil); err == nil || !strings.Contains(err.Error(), "already processed") {
		t.Errorf("late push accepted: %v", err)
	}
}
