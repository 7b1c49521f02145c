package core

import (
	"rrsched/internal/model"
)

// SuperEpochStats summarizes the Section 3.4 accounting of one run: the
// analysis partitions time into super-epochs — a super-epoch ends the moment
// at least `threshold` (= 2m = n/4 in the paper) colors have increased their
// timestamps since it began — and shows that any color overlaps a
// super-epoch with at most three epochs (Corollary 3.2), which bounds the
// number of "special" epochs (Lemma 3.16) and ultimately OPT's cost from
// below (Lemma 3.5).
type SuperEpochStats struct {
	// Threshold is the timestamp-update quota ending a super-epoch (2m).
	Threshold int
	// Completed counts completed super-epochs (the last one may be cut off).
	Completed int64
	// TimestampUpdates counts all timestamp update events.
	TimestampUpdates int64
	// MaxEpochOverlap is the maximum number of epochs of a single color
	// overlapping a single super-epoch (Corollary 3.2 bounds it by 3).
	MaxEpochOverlap int
}

// superEpochTracker implements the Section 3.4 bookkeeping on top of the
// shared Tracker state. It observes timestamp update events (a color's
// visible timestamp changes exactly at a multiple k of D_ℓ when a counter
// wrap happened in the preceding period, i.e. w1 == k - D_ℓ on entry) and
// epoch boundaries (eligible -> ineligible transitions).
type superEpochTracker struct {
	threshold int
	stats     SuperEpochStats

	updated map[model.Color]bool // colors with a timestamp update this super-epoch
	overlap map[model.Color]int  // epochs of each color overlapping this super-epoch
}

func newSuperEpochTracker(threshold int) *superEpochTracker {
	return &superEpochTracker{
		threshold: threshold,
		stats:     SuperEpochStats{Threshold: threshold},
		updated:   make(map[model.Color]bool),
		overlap:   make(map[model.Color]int),
	}
}

// onTimestampUpdate records a timestamp update event of color c.
func (s *superEpochTracker) onTimestampUpdate(c model.Color) {
	s.stats.TimestampUpdates++
	if !s.updated[c] {
		s.updated[c] = true
		if len(s.updated) >= s.threshold {
			s.closeSuperEpoch()
		}
	}
}

// onEpochStart records that color c started a new epoch (it had one before,
// which ended inside or before this super-epoch).
func (s *superEpochTracker) onEpochStart(c model.Color) {
	s.touch(c)
	s.overlap[c]++
	if s.overlap[c] > s.stats.MaxEpochOverlap {
		s.stats.MaxEpochOverlap = s.overlap[c]
	}
}

// touch lazily registers a color's current epoch as overlapping this
// super-epoch.
func (s *superEpochTracker) touch(c model.Color) {
	if _, ok := s.overlap[c]; !ok {
		s.overlap[c] = 1
		if s.stats.MaxEpochOverlap < 1 {
			s.stats.MaxEpochOverlap = 1
		}
	}
}

func (s *superEpochTracker) closeSuperEpoch() {
	s.stats.Completed++
	s.updated = make(map[model.Color]bool)
	s.overlap = make(map[model.Color]int)
	// Colors with an ongoing epoch will be re-registered lazily on their
	// next event; the new super-epoch starts with one overlapping epoch per
	// color, which touch() reproduces.
}

// EnableSuperEpochs turns on Section 3.4 super-epoch accounting with the
// given threshold (the paper uses 2m = n/4). Must be called after Reset and
// before the run. Returns the tracker itself for chaining.
func (t *Tracker) EnableSuperEpochs(threshold int) *Tracker {
	if threshold <= 0 {
		panic("core: super-epoch threshold must be positive")
	}
	t.super = newSuperEpochTracker(threshold)
	return t
}

// SuperEpochs returns the Section 3.4 statistics; zero-valued if
// EnableSuperEpochs was not called.
func (t *Tracker) SuperEpochs() SuperEpochStats {
	if t.super == nil {
		return SuperEpochStats{}
	}
	return t.super.stats
}

// observeArrivalForSuperEpochs hooks timestamp update detection into the
// arrival phase: at a multiple k of D_ℓ, the visible timestamp of ℓ changes
// exactly when the last counter wrap happened in the preceding period.
// Called before this round's wrap processing.
func (t *Tracker) observeArrivalForSuperEpochs(k int64) {
	if t.super == nil {
		return
	}
	for i := range t.states {
		cs := &t.states[i]
		if k%cs.delay != 0 {
			continue
		}
		c := t.colors[i]
		if cs.seen {
			t.super.touch(c)
		}
		if w, ok := cs.lastWrap(); ok && w == k-cs.delay {
			t.super.onTimestampUpdate(c)
		}
	}
}
