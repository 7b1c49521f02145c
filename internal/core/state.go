// Package core implements the paper's online reconfiguration policies for
// rate-limited batched instances (Section 3): ΔLRU (3.1.1), EDF (3.1.2), and
// the main contribution ΔLRU-EDF (3.1.3), a combination that caches one set
// of colors by recency of ΔLRU timestamps and a second set by earliest
// deadline. All three share the counter / eligibility / timestamp state
// machine of Section 3.1 ("common aspects"), implemented by Tracker.
package core

import (
	"fmt"
	"slices"

	"rrsched/internal/model"
	"rrsched/internal/obs"
	"rrsched/internal/sim"
)

// colorState is the per-color bookkeeping of Section 3.1: the counter ℓ.cnt,
// the deadline ℓ.dd, the eligibility bit, and the most recent
// counter-wrapping rounds (enough to answer timestamp queries; the ΔLRU
// timestamp is the latest wrap strictly before the most recent multiple of
// D_ℓ, and the ΔLRU-K generalization uses the K-th latest).
type colorState struct {
	delay    int64
	cnt      int64
	dd       int64
	eligible bool
	seen     bool    // a job of this color has arrived (epoch 0 started)
	wraps    []int64 // wrap rounds, most recent last (bounded by the tracker's depth)
}

// wrap records a counter-wrapping event in round k, retaining at most depth
// entries. The first wrap sizes the slice for depth entries and the oldest
// entries shift out in place, so a color's wraps allocate once.
func (cs *colorState) wrap(k int64, depth int) {
	if len(cs.wraps) >= depth {
		keep := depth - 1
		copy(cs.wraps, cs.wraps[len(cs.wraps)-keep:])
		cs.wraps = cs.wraps[:keep]
	} else if cap(cs.wraps) < depth {
		cs.wraps = append(make([]int64, 0, depth), cs.wraps...)
	}
	cs.wraps = append(cs.wraps, k)
}

// lastWrap returns the most recent wrap round (ok == false if none).
func (cs *colorState) lastWrap() (int64, bool) {
	if len(cs.wraps) == 0 {
		return 0, false
	}
	return cs.wraps[len(cs.wraps)-1], true
}

// timestampK returns the generalized ΔLRU-K timestamp at round now: the
// K-th latest counter-wrapping round strictly before k, where k is the most
// recent integral multiple of D_ℓ; 0 if fewer than K such wraps exist. K=1
// is the paper's timestamp (Section 3.1.1); larger K is the LRU-K flavor of
// O'Neil et al. discussed in the related work.
func (cs *colorState) timestampK(now int64, K int) int64 {
	k := (now / cs.delay) * cs.delay
	found := 0
	for i := len(cs.wraps) - 1; i >= 0; i-- {
		if cs.wraps[i] < k {
			found++
			if found == K {
				return cs.wraps[i]
			}
		}
	}
	return 0
}

// timestamp is the paper's K = 1 timestamp.
func (cs *colorState) timestamp(now int64) int64 { return cs.timestampK(now, 1) }

// Tracker maintains the shared per-color state for the Section 3 policies
// and the epoch / drop-classification accounting used by the analysis
// (epochs per Section 3.2, eligible vs ineligible drops per Lemma 3.2/3.4).
//
// The decision path runs every round for every served tenant, so the state
// is laid out densely, the way the sim engine lays out its own: per-color
// state lives in slots of one slice, kept in ascending color order (the
// paper's "consistent order of colors"), and every per-round phase ranges
// over the slots directly. A color is mapped to its slot (slotOf) only where
// one enters from outside: Register, the public getters, checkpoint/restore,
// and the arrivals, drops and cached set a round hands in. The rankings
// compute each candidate's sort key once per round into reused key slices
// and sort the keys; both keys are total orders, so the result is the
// permutation the spec's stable sort would give. The golden digests in
// golden_test.go and internal/stream pin the decisions across versions of
// this code.
type Tracker struct {
	delta  int64
	colors []model.Color // slot -> color, ascending
	states []colorState  // slot -> state
	tsK    int           // timestamp depth K (1 = the paper's ΔLRU)

	completedEpochs int64
	eligibleDrops   int64
	ineligibleDrops int64

	// super, when non-nil, performs the Section 3.4 super-epoch accounting
	// (see superepoch.go).
	super *superEpochTracker

	// sink, when non-nil, receives the tracker's decision events (epoch
	// ends, eligibility wraps). Emission is strictly after the state
	// transition, so attaching a sink never changes a decision.
	sink obs.EventSink

	// Per-round scratch, reused across calls so the steady-state decision
	// path allocates nothing. Slices returned from the helpers below alias
	// these buffers and are valid only until the next tracker call.
	counts  []int64 // per-slot arrivals of the current ArrivalPhase
	marks   []uint8 // per-slot protMark/cacheMark bits of the current edfUpdate
	tsKeys  []tsKey
	edfKeys []edfRank
	lruOut  []model.Color
	setOut  []model.Color
}

// Per-slot mark bits of edfUpdate.
const (
	protMark  uint8 = 1 << iota // the color is an LRU-color (never evicted here)
	cacheMark                   // the color is in the cache set being built
)

// NewTracker returns a Tracker for the given environment. The core policies
// require batched arrivals (jobs of color ℓ arrive at integral multiples of
// D_ℓ); Reset panics otherwise, because the drop/arrival phase bookkeeping of
// Section 3.1 is only defined for batched inputs. Use the VarBatch and
// Distribute reductions for general inputs.
func NewTracker(env sim.Env) *Tracker {
	if !env.Seq.IsBatched() {
		panic("core: the Section 3 policies require batched arrivals; wrap general inputs with reduce.VarBatch")
	}
	t := NewDynamicTracker(env.Seq.Delta())
	if env.Obs != nil {
		t.sink = env.Obs.Sink
	}
	for _, c := range env.Seq.Colors() {
		d, _ := env.Seq.DelayBound(c)
		t.Register(c, d)
	}
	return t
}

// SetSink attaches an event sink for the tracker's decision events (epoch
// ends per Section 3.2, eligibility wraps per Section 3.1). NewTracker wires
// this automatically from Env.Obs; dynamic trackers attach it explicitly.
func (t *Tracker) SetSink(sink obs.EventSink) { t.sink = sink }

// NewDynamicTracker returns a Tracker whose color universe is registered
// incrementally with Register — the streaming interface uses this, since
// subcolors of the Distribute reduction come into existence as batches
// arrive. The caller is responsible for only feeding batched arrivals.
func NewDynamicTracker(delta int64) *Tracker {
	if delta <= 0 {
		panic("core: non-positive reconfiguration cost")
	}
	return &Tracker{delta: delta, tsK: 1}
}

// SetTimestampK sets the timestamp depth K (>= 1): topByTimestamp then ranks
// colors by their K-th latest visible counter wrap (the LRU-K
// generalization). Must be set before the run.
func (t *Tracker) SetTimestampK(k int) {
	if k < 1 {
		panic("core: timestamp depth must be >= 1")
	}
	t.tsK = k
}

// slotOf returns the slot of color c (ok == false for colors outside the
// universe). A universe of colors 0..N-1 — every stream tracker, and the
// generated workloads — holds color c in slot c, which the first test finds
// without a search.
func (t *Tracker) slotOf(c model.Color) (int, bool) {
	if c >= 0 && int(c) < len(t.colors) && t.colors[c] == c {
		return int(c), true
	}
	return slices.BinarySearch(t.colors, c)
}

// Register adds a color with its delay bound to the universe; registering an
// existing color with the same delay is a no-op, with a different delay a
// panic.
func (t *Tracker) Register(c model.Color, delay int64) {
	if delay <= 0 {
		panic("core: non-positive delay bound")
	}
	i, ok := t.slotOf(c)
	if ok {
		if d := t.states[i].delay; d != delay {
			panic(fmt.Sprintf("core: color %v re-registered with delay %d (was %d)", c, delay, d))
		}
		return
	}
	t.insert(i, c, colorState{delay: delay})
}

// insert places color c with state cs at slot i, shifting later slots up.
// Colors registered in ascending order (every caller in this repository)
// append at the end. The per-slot scratch only needs the new length: it
// carries no state between calls.
func (t *Tracker) insert(i int, c model.Color, cs colorState) {
	t.colors = slices.Insert(t.colors, i, c)
	t.states = slices.Insert(t.states, i, cs)
	t.counts = append(t.counts, 0)
	t.marks = append(t.marks, 0)
}

// ComputeTarget runs the ΔLRU-EDF reconfiguration scheme (Section 3.1.3)
// directly on a tracker and view: the top lruSlots eligible colors by
// timestamp are protected, and the remaining capacity is managed by the EDF
// scheme. This is the policy core exposed for incremental drivers
// (internal/stream); DeltaLRUEDF.Target delegates to the same logic.
func ComputeTarget(t *Tracker, v sim.View, lruSlots int) []model.Color {
	lru := t.topByTimestamp(v.Round(), lruSlots)
	return edfUpdate(t, v, v.CachedColors(), lru, v.Slots()-lruSlots)
}

// state returns the colorState of c; colors outside the universe map to nil.
func (t *Tracker) state(c model.Color) *colorState {
	i, ok := t.slotOf(c)
	if !ok {
		return nil
	}
	return &t.states[i]
}

// Eligible reports whether color c is currently eligible.
func (t *Tracker) Eligible(c model.Color) bool {
	cs := t.state(c)
	return cs != nil && cs.eligible
}

// Deadline returns ℓ.dd of color c.
func (t *Tracker) Deadline(c model.Color) int64 {
	cs := t.state(c)
	if cs == nil {
		return 0
	}
	return cs.dd
}

// Timestamp returns the ΔLRU timestamp of color c at round now.
func (t *Tracker) Timestamp(c model.Color, now int64) int64 {
	cs := t.state(c)
	if cs == nil {
		return 0
	}
	return cs.timestampK(now, t.tsK)
}

// NumEpochs returns the number of epochs associated with the input so far,
// counting the incomplete last epoch of every color that has started one
// (Section 3.2: an epoch of ℓ ends the moment ℓ becomes ineligible; colors
// start ineligible and epoch 0 starts with the color's first job).
func (t *Tracker) NumEpochs() int64 {
	n := t.completedEpochs
	for i := range t.states {
		if t.states[i].seen {
			n++ // the current (possibly incomplete) epoch
		}
	}
	return n
}

// EligibleDrops returns the drop cost incurred on eligible jobs (jobs
// dropped while their color was eligible).
func (t *Tracker) EligibleDrops() int64 { return t.eligibleDrops }

// IneligibleDrops returns the drop cost incurred on ineligible jobs.
func (t *Tracker) IneligibleDrops() int64 { return t.ineligibleDrops }

// DropPhase performs the Section 3.1 drop-phase bookkeeping for round k:
// classify this round's drops by the (pre-transition) eligibility of their
// color, then, for every color ℓ with k ≡ 0 (mod D_ℓ) that is eligible and
// not cached, make ℓ ineligible and zero its counter, ending its epoch.
func (t *Tracker) DropPhase(v sim.View, dropped map[model.Color]int) {
	for c, n := range dropped {
		cs := t.state(c)
		if cs == nil {
			continue
		}
		if cs.eligible {
			t.eligibleDrops += int64(n)
		} else {
			t.ineligibleDrops += int64(n)
		}
	}
	k := v.Round()
	for i := range t.states {
		cs := &t.states[i]
		if !cs.eligible || k%cs.delay != 0 {
			continue
		}
		c := t.colors[i]
		if v.Cached(c) {
			continue
		}
		cs.eligible = false
		cs.cnt = 0
		t.completedEpochs++
		if t.super != nil {
			// The epoch of c ends here and its successor begins
			// immediately (Section 3.2).
			t.super.onEpochStart(c)
		}
		if t.sink != nil {
			t.sink.Emit(obs.Event{Kind: obs.EventEpochEnd, Round: k, Color: c, Resource: -1, N: t.completedEpochs})
		}
	}
}

// ArrivalPhase performs the Section 3.1 arrival-phase bookkeeping for round
// k: for every color ℓ with k ≡ 0 (mod D_ℓ), advance its deadline to k+D_ℓ,
// add this round's arrivals to its counter, and on reaching Δ wrap the
// counter (recording the wrap round) and make the color eligible.
func (t *Tracker) ArrivalPhase(v sim.View, arrivals []model.Job) {
	counts := t.counts
	clear(counts)
	for _, j := range arrivals {
		if i, ok := t.slotOf(j.Color); ok {
			counts[i]++
		}
	}
	k := v.Round()
	t.observeArrivalForSuperEpochs(k)
	for i := range t.states {
		cs := &t.states[i]
		if k%cs.delay != 0 {
			continue
		}
		cs.dd = k + cs.delay
		if n := counts[i]; n > 0 {
			cs.seen = true
			cs.cnt += n
		}
		if cs.cnt >= t.delta {
			cs.cnt %= t.delta
			cs.wrap(k, t.tsK+1)
			cs.eligible = true
			if t.sink != nil {
				t.sink.Emit(obs.Event{Kind: obs.EventEligible, Round: k, Color: t.colors[i], Resource: -1, N: t.delta})
			}
		}
	}
}

// tsKey is the ΔLRU ranking key of one eligible color: its timestamp at the
// round being decided and its slot (ascending slots are ascending colors).
type tsKey struct {
	ts   int64
	slot int32
}

// cmpTS orders newer timestamps first, ties broken by the consistent color
// order. Distinct slots never compare equal, so the order is total.
func cmpTS(a, b tsKey) int {
	switch {
	case a.ts > b.ts:
		return -1
	case a.ts < b.ts:
		return 1
	}
	return int(a.slot) - int(b.slot)
}

// topByTimestamp returns the (at most q) eligible colors with the most
// recent timestamps at round now, ties broken by the consistent color order.
// Each eligible color's timestamp is computed once into a key and the keys
// are sorted; the key order is total, so the unstable sort produces the same
// result the spec's stable sort would. The returned slice aliases tracker
// scratch, valid until the next topByTimestamp call.
func (t *Tracker) topByTimestamp(now int64, q int) []model.Color {
	keys := t.tsKeys[:0]
	for i := range t.states {
		cs := &t.states[i]
		if cs.eligible {
			keys = append(keys, tsKey{ts: cs.timestampK(now, t.tsK), slot: int32(i)})
		}
	}
	t.tsKeys = keys
	slices.SortFunc(keys, cmpTS)
	if len(keys) > q {
		keys = keys[:q]
	}
	out := t.lruOut[:0]
	for _, k := range keys {
		out = append(out, t.colors[k.slot])
	}
	t.lruOut = out
	return out
}

// edfRank is the EDF ranking key of Section 3.1.2: nonidle colors first,
// then ascending deadline, then ascending delay bound, then the consistent
// order of colors. Smaller compares first (better rank). slot locates the
// color's state and takes no part in the order.
type edfRank struct {
	idle  bool
	dd    int64
	delay int64
	color model.Color
	slot  int32
}

// cmpEDF is the three-way form of the EDF order. The color field breaks
// every tie, so the order is total over distinct colors.
func cmpEDF(a, b edfRank) int {
	switch {
	case a.idle != b.idle:
		if !a.idle {
			return -1 // nonidle first
		}
		return 1
	case a.dd != b.dd:
		if a.dd < b.dd {
			return -1
		}
		return 1
	case a.delay != b.delay:
		if a.delay < b.delay {
			return -1
		}
		return 1
	case a.color != b.color:
		if a.color < b.color {
			return -1
		}
		return 1
	}
	return 0
}

// edfKey builds the EDF key of the color in slot i: one Pending call.
func (t *Tracker) edfKey(v sim.View, i int) edfRank {
	cs := &t.states[i]
	c := t.colors[i]
	return edfRank{idle: v.Pending(c) == 0, dd: cs.dd, delay: cs.delay, color: c, slot: int32(i)}
}

// rankEDF returns a copy of the given distinct registered colors sorted by
// the EDF ranking at the current view state (idleness comes from the live
// pending counts), through the keys and order edfUpdate ranks by.
func (t *Tracker) rankEDF(v sim.View, colors []model.Color) []model.Color {
	keys := make([]edfRank, 0, len(colors))
	for _, c := range colors {
		i, _ := t.slotOf(c)
		keys = append(keys, t.edfKey(v, i))
	}
	slices.SortFunc(keys, cmpEDF)
	ranked := make([]model.Color, len(keys))
	for i, k := range keys {
		ranked[i] = k.color
	}
	return ranked
}

// DelayBoundOf returns the registered delay bound of color c (0 if the
// color is unknown).
func (t *Tracker) DelayBoundOf(c model.Color) int64 {
	cs := t.state(c)
	if cs == nil {
		return 0
	}
	return cs.delay
}
