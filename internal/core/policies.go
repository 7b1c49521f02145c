package core

import (
	"fmt"
	"slices"

	"rrsched/internal/model"
	"rrsched/internal/sim"
)

// DeltaLRU is the pure recency policy of Section 3.1.1: it keeps the
// eligible colors with the most recent ΔLRU timestamps cached, ignoring
// idleness. It is not resource competitive (Appendix A): it underutilizes
// resources by caching idle colors with recent timestamps.
type DeltaLRU struct {
	tracker *Tracker
}

// NewDeltaLRU returns a fresh ΔLRU policy.
func NewDeltaLRU() *DeltaLRU { return &DeltaLRU{} }

// Name implements sim.Policy.
func (p *DeltaLRU) Name() string { return "dlru" }

// Reset implements sim.Policy.
func (p *DeltaLRU) Reset(env sim.Env) { p.tracker = NewTracker(env) }

// DropPhase implements sim.Policy.
func (p *DeltaLRU) DropPhase(v sim.View, dropped map[model.Color]int) {
	p.tracker.DropPhase(v, dropped)
}

// ArrivalPhase implements sim.Policy.
func (p *DeltaLRU) ArrivalPhase(v sim.View, arrivals []model.Job) {
	p.tracker.ArrivalPhase(v, arrivals)
}

// Target implements sim.Policy: cache the Slots() eligible colors with the
// most recent timestamps.
func (p *DeltaLRU) Target(v sim.View) []model.Color {
	return p.tracker.topByTimestamp(v.Round(), v.Slots())
}

// Tracker exposes the shared state machine (for analysis experiments).
func (p *DeltaLRU) Tracker() *Tracker { return p.tracker }

// EDF is the pure deadline policy of Section 3.1.2: it caches nonidle
// eligible colors in EDF-rank order, evicting the lowest-ranked cached color
// when full. It is not resource competitive (Appendix B): it thrashes when a
// short-delay color alternates between idle and nonidle.
type EDF struct {
	tracker *Tracker
}

// NewEDF returns a fresh EDF policy.
func NewEDF() *EDF { return &EDF{} }

// Name implements sim.Policy.
func (p *EDF) Name() string { return "edf" }

// Reset implements sim.Policy.
func (p *EDF) Reset(env sim.Env) { p.tracker = NewTracker(env) }

// DropPhase implements sim.Policy.
func (p *EDF) DropPhase(v sim.View, dropped map[model.Color]int) {
	p.tracker.DropPhase(v, dropped)
}

// ArrivalPhase implements sim.Policy.
func (p *EDF) ArrivalPhase(v sim.View, arrivals []model.Job) {
	p.tracker.ArrivalPhase(v, arrivals)
}

// Target implements sim.Policy: starting from the current cache, bring in
// every nonidle eligible color ranked in the top Slots() that is not cached,
// evicting the lowest-ranked cached colors to make room.
func (p *EDF) Target(v sim.View) []model.Color {
	return edfUpdate(p.tracker, v, v.CachedColors(), nil, v.Slots())
}

// Tracker exposes the shared state machine.
func (p *EDF) Tracker() *Tracker { return p.tracker }

// edfUpdate implements the cache update shared by EDF and the EDF half of
// ΔLRU-EDF: given the current cached set and a protected subset (the
// LRU-colors, never evicted here), rank the eligible unprotected colors, pull
// the nonidle top-q entries that are missing into the cache, and evict
// lowest-ranked unprotected colors while the cache exceeds capacity.
//
// Set membership is a per-slot mark, and each candidate's EDF key (with its
// idleness) is built once. All working storage is tracker-owned scratch, so
// the steady-state decision path allocates nothing; the returned slice is
// valid only until the next edfUpdate call on the same tracker (the
// sim.Policy.Target contract).
func edfUpdate(t *Tracker, v sim.View, cached, protected []model.Color, q int) []model.Color {
	marks := t.marks
	clear(marks)
	for _, c := range protected {
		if i, ok := t.slotOf(c); ok {
			marks[i] |= protMark
		}
	}
	set := t.setOut[:0]
	// add appends c to the set unless it is already there. A cached color
	// outside the universe (a restored stream can hold one) has no slot to
	// mark; it is never ranked, and the protected and cached lists each hold
	// distinct colors, so it is appended once.
	add := func(c model.Color) {
		i, ok := t.slotOf(c)
		if !ok {
			set = append(set, c)
			return
		}
		if marks[i]&cacheMark == 0 {
			marks[i] |= cacheMark
			set = append(set, c)
		}
	}
	for _, c := range protected {
		add(c)
	}
	for _, c := range cached {
		add(c)
	}

	// Rank eligible unprotected colors.
	ranked := t.edfKeys[:0]
	for i := range t.states {
		if t.states[i].eligible && marks[i]&protMark == 0 {
			ranked = append(ranked, t.edfKey(v, i))
		}
	}
	t.edfKeys = ranked
	slices.SortFunc(ranked, cmpEDF)
	top := ranked[:min(q, len(ranked))]

	// Bring in the nonidle top-q ranked colors that are missing.
	for _, k := range top {
		if !k.idle && marks[k.slot]&cacheMark == 0 {
			marks[k.slot] |= cacheMark
			set = append(set, k.color)
		}
	}

	// Evict lowest-ranked unprotected colors while over capacity.
	capacity := v.Slots()
	for i := len(ranked) - 1; i >= 0 && len(set) > capacity; i-- {
		k := ranked[i]
		if marks[k.slot]&cacheMark == 0 {
			continue
		}
		marks[k.slot] &^= cacheMark
		set = removeColor(set, k.color)
	}
	if len(set) > capacity {
		// Cannot happen: protected ≤ capacity/2 and everything else is
		// evictable. Guard against silent corruption.
		panic(fmt.Sprintf("core: cache overflow: %d colors, capacity %d", len(set), capacity))
	}
	t.setOut = set
	return set
}

func removeColor(set []model.Color, c model.Color) []model.Color {
	for i, x := range set {
		if x == c {
			return append(set[:i], set[i+1:]...)
		}
	}
	return set
}

// DeltaLRUEDF is the paper's main contribution (Section 3.1.3): it keeps two
// sets of colors cached — up to half the slots hold the eligible colors with
// the most recent ΔLRU timestamps (the LRU-colors, kept regardless of
// idleness, which prevents thrashing), and the remaining capacity holds
// nonidle eligible colors by EDF rank (which prevents underutilization).
// With n = 8m resources and two-way replication it is resource competitive
// for rate-limited [Δ | 1 | D_ℓ | D_ℓ] with power-of-two delay bounds
// (Theorem 1).
type DeltaLRUEDF struct {
	tracker     *Tracker
	lruSlots    int // 0 => half the slots
	superEpochs bool
	timestampK  int // 0 => 1 (the paper's ΔLRU timestamp)
}

// Option configures DeltaLRUEDF.
type Option func(*DeltaLRUEDF)

// WithLRUSlots overrides the number of slots reserved for the ΔLRU half
// (default: half the slots). Used by the ablation experiments.
func WithLRUSlots(q int) Option {
	return func(p *DeltaLRUEDF) { p.lruSlots = q }
}

// WithSuperEpochs enables the Section 3.4 super-epoch accounting with the
// paper's threshold 2m = n/4 (half the distinct-color slots). Read the
// statistics from Tracker().SuperEpochs() after the run.
func WithSuperEpochs() Option {
	return func(p *DeltaLRUEDF) { p.superEpochs = true }
}

// WithTimestampK sets the timestamp depth K >= 1 for the ΔLRU half: colors
// are ranked by their K-th latest visible counter wrap instead of the
// latest, the LRU-K generalization of O'Neil et al. from the paper's
// related work. K = 1 (the default) is the paper's ΔLRU timestamp.
func WithTimestampK(k int) Option {
	return func(p *DeltaLRUEDF) { p.timestampK = k }
}

// NewDeltaLRUEDF returns a fresh ΔLRU-EDF policy.
func NewDeltaLRUEDF(opts ...Option) *DeltaLRUEDF {
	p := &DeltaLRUEDF{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements sim.Policy.
func (p *DeltaLRUEDF) Name() string { return "dlru-edf" }

// Reset implements sim.Policy.
func (p *DeltaLRUEDF) Reset(env sim.Env) {
	p.tracker = NewTracker(env)
	if p.timestampK > 0 {
		p.tracker.SetTimestampK(p.timestampK)
	}
	if p.lruSlots < 0 || p.lruSlots > env.Slots() {
		panic(fmt.Sprintf("core: LRU slot quota %d out of range [0,%d]", p.lruSlots, env.Slots()))
	}
	if p.superEpochs {
		threshold := env.Slots() / 2 // 2m = n/4 in the paper's regime
		if threshold < 1 {
			threshold = 1
		}
		p.tracker.EnableSuperEpochs(threshold)
	}
}

// DropPhase implements sim.Policy.
func (p *DeltaLRUEDF) DropPhase(v sim.View, dropped map[model.Color]int) {
	p.tracker.DropPhase(v, dropped)
}

// ArrivalPhase implements sim.Policy.
func (p *DeltaLRUEDF) ArrivalPhase(v sim.View, arrivals []model.Job) {
	p.tracker.ArrivalPhase(v, arrivals)
}

// Target implements sim.Policy: first the ΔLRU step caches the top-q colors
// by timestamp; then the EDF step brings in the nonidle top-q colors by rank
// among the non-LRU eligible colors, evicting the lowest-ranked non-LRU
// cached colors when the cache is full.
func (p *DeltaLRUEDF) Target(v sim.View) []model.Color {
	q := p.lruSlots
	if q == 0 {
		q = v.Slots() / 2
	}
	lru := p.tracker.topByTimestamp(v.Round(), q)
	edfQuota := v.Slots() - q
	return edfUpdate(p.tracker, v, v.CachedColors(), lru, edfQuota)
}

// Tracker exposes the shared state machine (epoch and drop accounting for
// the Lemma 3.2–3.4 experiments).
func (p *DeltaLRUEDF) Tracker() *Tracker { return p.tracker }

var (
	_ sim.Policy = (*DeltaLRU)(nil)
	_ sim.Policy = (*EDF)(nil)
	_ sim.Policy = (*DeltaLRUEDF)(nil)
)
