package rrsched_test

// Fuzz target for the user-reachable checkpoint reader: RestoreStream must
// reject arbitrary and corrupted checkpoint bytes with an error — never a
// panic — and a checkpoint it does accept must yield a scheduler that can
// make progress.

import (
	"encoding/json"
	"testing"

	"rrsched"
)

func FuzzRestoreStream(f *testing.F) {
	// Seed with a real checkpoint taken mid-run, so the fuzzer starts from
	// the accepted grammar and mutates outward.
	s, err := rrsched.NewStream(4, 8)
	if err != nil {
		f.Fatal(err)
	}
	for r := int64(0); r < 24; r++ {
		// Disjoint color ranges per delay bound: a color's bound is fixed.
		jobs := []rrsched.Job{
			{ID: 2 * r, Color: rrsched.Color(r % 3), Arrival: r, Delay: 4},
			{ID: 2*r + 1, Color: rrsched.Color(10 + r%5), Arrival: r, Delay: 8},
		}
		if _, err := s.Push(r, jobs); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	// An inner location holding an inner color past to_outer: a checkpoint
	// Restore once accepted, whose first Push then indexed out of range.
	var m map[string]any
	if err := json.Unmarshal(snap, &m); err != nil {
		f.Fatal(err)
	}
	m["inner"].(map[string]any)["loc_color"].([]any)[0] = 999
	bad, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bad)
	// A VarBatch release job with delay 0 at the checkpoint's round: a
	// checkpoint Restore once accepted, whose next Push then panicked.
	if err := json.Unmarshal(snap, &m); err != nil {
		f.Fatal(err)
	}
	rel := m["releases"].([]any)[0].(map[string]any)
	rel["round"] = m["round"]
	rel["jobs"].([]any)[0].(map[string]any)["delay"] = 0
	zeroDelay, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(zeroDelay)
	// A truncation, a splice, and non-checkpoint bytes.
	f.Add(snap[:len(snap)/2])
	f.Add(append(append([]byte{}, snap[len(snap)/3:]...), snap[:len(snap)/3]...))
	f.Add([]byte(`{"schema":"bogus"}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := rrsched.RestoreStream(data)
		if err != nil {
			return // rejected gracefully
		}
		// Accepted checkpoints must produce a usable scheduler. Push exactly
		// the next unprocessed round (the checkpoint's "round" field): pushing
		// a later round would make the scheduler catch up one round at a time,
		// which is unbounded work if the fuzzer crafts a huge round value.
		var next struct {
			Round int64 `json:"round"`
		}
		if err := json.Unmarshal(data, &next); err != nil {
			t.Fatalf("accepted checkpoint is not JSON: %v", err)
		}
		if _, err := restored.Push(next.Round, nil); err != nil {
			return
		}
		// And a round already processed must error, not panic.
		if _, err := restored.Push(next.Round, nil); err == nil {
			t.Fatal("re-pushing a processed round succeeded")
		}
	})
}
