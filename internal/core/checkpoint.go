package core

import (
	"cmp"
	"fmt"
	"slices"

	"rrsched/internal/model"
)

// TrackerCheckpoint is a serializable image of a Tracker: the full Section
// 3.1 state machine (per-color counters, deadlines, eligibility, timestamp
// wraps) plus the epoch and drop accounting. Colors are sorted so equal
// trackers produce identical checkpoints.
type TrackerCheckpoint struct {
	Delta           int64             `json:"delta"`
	TimestampK      int               `json:"timestamp_k"`
	CompletedEpochs int64             `json:"completed_epochs"`
	EligibleDrops   int64             `json:"eligible_drops"`
	IneligibleDrops int64             `json:"ineligible_drops"`
	Colors          []ColorCheckpoint `json:"colors"`
}

// ColorCheckpoint is the serialized per-color state.
type ColorCheckpoint struct {
	Color    model.Color `json:"color"`
	Delay    int64       `json:"delay"`
	Cnt      int64       `json:"cnt"`
	Deadline int64       `json:"deadline"`
	Eligible bool        `json:"eligible"`
	Wraps    []int64     `json:"wraps,omitempty"`
	Seen     bool        `json:"seen,omitempty"`
}

// Checkpoint captures the tracker's state; the slots are already in
// ascending color order. Trackers with super-epoch accounting enabled are
// not checkpointable (the streaming scheduler, the only user that
// checkpoints a tracker, never enables it).
func (t *Tracker) Checkpoint() (*TrackerCheckpoint, error) {
	cp, n, err := t.CheckpointHead()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		cp.Colors = make([]ColorCheckpoint, n) // an empty tracker encodes "colors": null
	}
	for i := range cp.Colors {
		cc := t.CheckpointColor(i)
		if len(cc.Wraps) > 0 {
			cc.Wraps = append([]int64(nil), cc.Wraps...)
		}
		cp.Colors[i] = cc
	}
	return &cp, nil
}

// CheckpointHead returns Checkpoint's fields without the colors, and how
// many colors CheckpointColor serves. The two halves let an encoder write
// the tracker's state straight out, copying nothing.
func (t *Tracker) CheckpointHead() (cp TrackerCheckpoint, colors int, err error) {
	if t.super != nil {
		return cp, 0, fmt.Errorf("core: tracker with super-epoch accounting is not checkpointable")
	}
	cp = TrackerCheckpoint{
		Delta:           t.delta,
		TimestampK:      t.tsK,
		CompletedEpochs: t.completedEpochs,
		EligibleDrops:   t.eligibleDrops,
		IneligibleDrops: t.ineligibleDrops,
	}
	return cp, len(t.states), nil
}

// CheckpointColor returns the checkpoint state of the i-th color in
// ascending color order, 0 <= i < the count CheckpointHead returns. Its
// Wraps is lent: it aliases the tracker's own, must not be modified, and
// stays valid only until the tracker next changes.
func (t *Tracker) CheckpointColor(i int) ColorCheckpoint {
	cs := &t.states[i]
	return ColorCheckpoint{
		Color:    t.colors[i],
		Delay:    cs.delay,
		Cnt:      cs.cnt,
		Deadline: cs.dd,
		Eligible: cs.eligible,
		Wraps:    cs.wraps,
		Seen:     cs.seen,
	}
}

// RestoreTracker rebuilds a Tracker from a checkpoint, validating it field by
// field so a corrupted checkpoint is rejected rather than resumed.
func RestoreTracker(cp *TrackerCheckpoint) (*Tracker, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: nil tracker checkpoint")
	}
	if cp.Delta <= 0 {
		return nil, fmt.Errorf("core: checkpoint has non-positive delta %d", cp.Delta)
	}
	if cp.TimestampK < 1 {
		return nil, fmt.Errorf("core: checkpoint has timestamp depth %d", cp.TimestampK)
	}
	if cp.CompletedEpochs < 0 || cp.EligibleDrops < 0 || cp.IneligibleDrops < 0 {
		return nil, fmt.Errorf("core: checkpoint has negative accounting counters")
	}
	t := NewDynamicTracker(cp.Delta)
	t.tsK = cp.TimestampK
	t.completedEpochs = cp.CompletedEpochs
	t.eligibleDrops = cp.EligibleDrops
	t.ineligibleDrops = cp.IneligibleDrops
	for i, cc := range cp.Colors {
		if cc.Color < 0 {
			return nil, fmt.Errorf("core: checkpoint color %d has invalid color %v", i, cc.Color)
		}
		if cc.Delay <= 0 {
			return nil, fmt.Errorf("core: checkpoint color %v has non-positive delay %d", cc.Color, cc.Delay)
		}
		if cc.Cnt < 0 || cc.Cnt >= cp.Delta {
			return nil, fmt.Errorf("core: checkpoint color %v has counter %d outside [0,%d)", cc.Color, cc.Cnt, cp.Delta)
		}
		if len(cc.Wraps) > cp.TimestampK+1 {
			return nil, fmt.Errorf("core: checkpoint color %v has %d wraps (depth %d)", cc.Color, len(cc.Wraps), cp.TimestampK+1)
		}
		for j := 1; j < len(cc.Wraps); j++ {
			if cc.Wraps[j] < cc.Wraps[j-1] {
				return nil, fmt.Errorf("core: checkpoint color %v has unsorted wraps", cc.Color)
			}
		}
	}
	// Checkpoint writes the colors in ascending order; sorting a copy first
	// keeps a reordered checkpoint valid and every slot insert an append.
	colors := slices.Clone(cp.Colors)
	slices.SortFunc(colors, func(a, b ColorCheckpoint) int { return cmp.Compare(a.Color, b.Color) })
	for i, cc := range colors {
		if i > 0 && cc.Color == colors[i-1].Color {
			return nil, fmt.Errorf("core: checkpoint repeats color %v", cc.Color)
		}
		t.insert(i, cc.Color, colorState{
			delay:    cc.Delay,
			cnt:      cc.Cnt,
			dd:       cc.Deadline,
			eligible: cc.Eligible,
			wraps:    append([]int64(nil), cc.Wraps...),
			seen:     cc.Seen,
		})
	}
	return t, nil
}
