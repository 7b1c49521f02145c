package core

import (
	"reflect"
	"strings"
	"testing"

	"rrsched/internal/model"
)

// TestTrackerCheckpointRoundTrip pins the tracker's checkpoint: a tracker
// driven through counter wraps restores from its checkpoint to a tracker
// that checkpoints identically; Checkpoint copies each color's wraps while
// CheckpointColor lends the tracker's own; and a tracker with super-epoch
// accounting refuses both halves.
func TestTrackerCheckpointRoundTrip(t *testing.T) {
	tr, v := trackerEnv(t, 3)
	for r := int64(0); r < 12; r++ {
		v.round = r
		tr.DropPhase(v, map[model.Color]int{})
		tr.ArrivalPhase(v, append(jobs(0, 4, r, 4), jobs(1, 2, r, 2)...))
	}
	cp, err := tr.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Colors) != 2 || len(cp.Colors[0].Wraps) == 0 {
		t.Fatalf("fixture checkpoint %+v, want two colors with wraps", cp)
	}
	restored, err := RestoreTracker(cp)
	if err != nil {
		t.Fatalf("RestoreTracker: %v", err)
	}
	again, err := restored.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, cp) {
		t.Fatalf("restored tracker checkpoints as %+v, want %+v", again, cp)
	}

	head, n, err := tr.CheckpointHead()
	if err != nil || n != len(cp.Colors) || head.Colors != nil {
		t.Fatalf("CheckpointHead = %+v, %d colors, %v; want no colors listed and a count of %d", head, n, err, len(cp.Colors))
	}
	head.Colors = cp.Colors
	if !reflect.DeepEqual(&head, cp) {
		t.Fatalf("CheckpointHead's fields %+v differ from Checkpoint's %+v", head, cp)
	}
	for i := 0; i < n; i++ {
		lent := tr.CheckpointColor(i)
		if !reflect.DeepEqual(lent, cp.Colors[i]) && len(lent.Wraps)+len(cp.Colors[i].Wraps) > 0 {
			t.Fatalf("CheckpointColor(%d) = %+v, Checkpoint has %+v", i, lent, cp.Colors[i])
		}
		if len(lent.Wraps) > 0 {
			if &lent.Wraps[0] != &tr.states[i].wraps[0] {
				t.Errorf("CheckpointColor(%d) copied the wraps it should lend", i)
			}
			if &cp.Colors[i].Wraps[0] == &tr.states[i].wraps[0] {
				t.Errorf("Checkpoint lent color %d's wraps it should copy", i)
			}
		}
	}

	super := NewDynamicTracker(3).EnableSuperEpochs(2)
	if _, err := super.Checkpoint(); err == nil {
		t.Error("a tracker with super-epoch accounting checkpointed")
	}
	if _, _, err := super.CheckpointHead(); err == nil {
		t.Error("a tracker with super-epoch accounting gave a checkpoint head")
	}
}

// TestRestoreTrackerRefusals pins each field RestoreTracker validates.
func TestRestoreTrackerRefusals(t *testing.T) {
	good := func() *TrackerCheckpoint {
		return &TrackerCheckpoint{Delta: 3, TimestampK: 1, Colors: []ColorCheckpoint{
			{Color: 0, Delay: 4, Cnt: 1, Wraps: []int64{2, 5}},
			{Color: 1, Delay: 2},
		}}
	}
	if _, err := RestoreTracker(good()); err != nil {
		t.Fatalf("a valid checkpoint was refused: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(cp *TrackerCheckpoint)
		want   string
	}{
		{"delta", func(cp *TrackerCheckpoint) { cp.Delta = 0 }, "non-positive delta"},
		{"depth", func(cp *TrackerCheckpoint) { cp.TimestampK = 0 }, "timestamp depth"},
		{"counters", func(cp *TrackerCheckpoint) { cp.EligibleDrops = -1 }, "negative accounting"},
		{"color", func(cp *TrackerCheckpoint) { cp.Colors[1].Color = -2 }, "invalid color"},
		{"delay", func(cp *TrackerCheckpoint) { cp.Colors[1].Delay = 0 }, "non-positive delay"},
		{"counter", func(cp *TrackerCheckpoint) { cp.Colors[0].Cnt = 3 }, "outside [0,3)"},
		{"too many wraps", func(cp *TrackerCheckpoint) { cp.Colors[0].Wraps = []int64{1, 2, 3} }, "wraps (depth 2)"},
		{"unsorted wraps", func(cp *TrackerCheckpoint) { cp.Colors[0].Wraps = []int64{5, 2} }, "unsorted wraps"},
		{"repeated color", func(cp *TrackerCheckpoint) { cp.Colors[1].Color = 0 }, "repeats color"},
	} {
		cp := good()
		c.mutate(cp)
		if _, err := RestoreTracker(cp); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: RestoreTracker = %v, want mention of %q", c.name, err, c.want)
		}
	}
	if _, err := RestoreTracker(nil); err == nil {
		t.Error("RestoreTracker accepted a nil checkpoint")
	}
}
