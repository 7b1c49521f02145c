package stream

import (
	"testing"

	"rrsched/internal/workload"
)

// densePushAllocs is the pinned allocation count of one warmed dense Push.
// What remains:
//   - the Decision's Executions and Reconfigs slices (and Dropped, in a
//     round that drops): the caller owns them, so each is one exact-size
//     copy out of the scheduler's reused scratch;
//   - the growth of the VarBatch release lists: a job waits up to half its
//     delay bound for its release round, and each round's list is built by
//     appends across those rounds and dropped once released. Recycling the
//     lists would save these allocations but keep every list at the largest
//     release batch's capacity, about 145 KiB per dense scheduler.
//
// Lower it when a change removes one; never raise it to let a change
// through.
const densePushAllocs = 5

// TestDensePushAllocs is the allocation ratchet of the dense hot path: a
// warmed dense-shaped scheduler (n=128, 96 colors, delays 4..64, load 0.6)
// must not allocate more per Push than densePushAllocs.
func TestDensePushAllocs(t *testing.T) {
	const warm, runs = 256, 200
	seq := denseSequence(t, 1, warm+runs+1)
	s, err := New(Config{Delta: seq.Delta(), Resources: denseResources})
	if err != nil {
		t.Fatal(err)
	}
	r := int64(0)
	push := func() {
		if _, err := s.Push(r, seq.Request(r)); err != nil {
			t.Fatal(err)
		}
		r++
	}
	for r < warm {
		push()
	}
	if got := testing.AllocsPerRun(runs, push); got > densePushAllocs {
		t.Errorf("a warmed dense Push allocates %.0f times, pinned at %d", got, densePushAllocs)
	}
}

// fleetImageAllocs is the pinned allocation count of one image of a warmed
// fleet-shaped scheduler: AppendBinary into a reused buffer, then
// CheckBinary on the result. Both write and walk the image straight from
// and over bytes, so nothing is left to allocate. Lower it when a change
// removes one; never raise it to let a change through.
const fleetImageAllocs = 0

// TestFleetImageAllocs is the allocation ratchet of the checkpoint cut and
// the fold's check: a fleet-shaped scheduler (n=8, Δ=4, 8 colors, delays
// 4..32, load 0.6) warmed for 256 rounds must not allocate more per image
// than fleetImageAllocs.
func TestFleetImageAllocs(t *testing.T) {
	const warm = 256
	seq, err := workload.RandomGeneral(workload.RandomConfig{
		Seed: 1, Delta: 4, Colors: 8, Rounds: warm,
		MinDelayExp: 2, MaxDelayExp: 5, Load: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq = seq.Canonical()
	s, err := New(Config{Delta: seq.Delta(), Resources: 8})
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < warm; r++ {
		if _, err := s.Push(r, seq.Request(r)); err != nil {
			t.Fatal(err)
		}
	}
	img, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	image := func() {
		if img, err = s.AppendBinary(img[:0]); err != nil {
			t.Fatal(err)
		}
		if err := CheckBinary(img); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, image); got > fleetImageAllocs {
		t.Errorf("AppendBinary plus CheckBinary allocate %.0f times per fleet image, pinned at %d", got, fleetImageAllocs)
	}
}
