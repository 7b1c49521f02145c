package stream

import (
	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/queue"
	"rrsched/internal/reduce"
)

// innerState simulates the reduced instance (VarBatch-delayed, Distribute-
// split) round by round: it owns the inner pending queues, the inner
// location assignment (two locations per cached inner color), and the
// ΔLRU-EDF tracker. The outer scheduler projects the inner location colors
// back to outer colors each round.
//
// Inner colors are dense (subcolor mints them as 0, 1, 2, ...), so every
// per-color structure is a slice indexed by inner color, and the per-round
// scratch is reused across rounds.
type innerState struct {
	delta int64
	n     int

	tracker *core.Tracker

	// Subcolor mapping, built lazily as batches arrive: inner color ic is
	// Distribute bucket buckets[ic] of outer color toOuter[ic].
	toOuter []model.Color
	buckets []int64
	inner   map[subKey]model.Color

	pending   []queue.Ring[int64] // inner color -> deadlines
	locColor  []model.Color
	colorLocs [][]int // inner color -> its locations; empty when not cached
	freeLocs  []int

	now int64
	v   innerView // the sim.View of this state, handed to the tracker

	// Per-round scratch.
	dropped  map[model.Color]int   // DropPhase argument
	rank     map[model.Color]int64 // jobs of each outer color released so far this round
	arrivals []model.Job           // this round's inner arrivals
	want     []bool                // inner color -> in this round's target (place)
	cached   []model.Color         // CachedColors result
}

type subKey struct {
	outer model.Color
	j     int64
}

func newInnerState(cfg Config) *innerState {
	st := &innerState{
		delta:   cfg.Delta,
		n:       cfg.Resources,
		tracker: core.NewDynamicTracker(cfg.Delta),
		inner:   map[subKey]model.Color{},
		dropped: map[model.Color]int{},
		rank:    map[model.Color]int64{},
	}
	st.v = innerView{st: st}
	st.locColor = make([]model.Color, cfg.Resources)
	st.freeLocs = make([]int, cfg.Resources)
	for i := range st.locColor {
		st.locColor[i] = model.Black
		st.freeLocs[i] = cfg.Resources - 1 - i
	}
	return st
}

// setColors sizes the per-inner-color slices for k inner colors.
func (st *innerState) setColors(k int) {
	st.pending = make([]queue.Ring[int64], k)
	st.colorLocs = make([][]int, k)
	st.want = make([]bool, k)
}

// outerOf maps an inner color back to its outer color.
func (st *innerState) outerOf(ic model.Color) model.Color {
	return st.toOuter[ic]
}

// subcolor returns (creating if needed) the inner color of (outer, bucket),
// registering it with the tracker under the halved delay bound h.
func (st *innerState) subcolor(outer model.Color, j, h int64) model.Color {
	k := subKey{outer: outer, j: j}
	if ic, ok := st.inner[k]; ok {
		return ic
	}
	ic := model.Color(len(st.toOuter))
	st.inner[k] = ic
	st.toOuter = append(st.toOuter, outer)
	st.buckets = append(st.buckets, j)
	st.pending = append(st.pending, queue.Ring[int64]{})
	st.colorLocs = append(st.colorLocs, nil)
	st.want = append(st.want, false)
	st.tracker.Register(ic, h)
	return ic
}

// round advances the inner simulation one round: drop, arrival (the released
// outer jobs, split into rate-limited subcolors), reconfiguration (ΔLRU-EDF
// target + placement), and execution. It returns nothing; the caller reads
// locColor for the projection.
func (st *innerState) round(r int64, released []model.Job) []model.Color {
	st.now = r

	// Drop phase.
	dropped := st.dropped
	clear(dropped)
	for ic := range st.pending {
		q := &st.pending[ic]
		for q.Len() > 0 && q.Peek() <= r {
			q.Pop()
			dropped[model.Color(ic)]++
		}
	}
	st.tracker.DropPhase(st.view(), dropped)

	// Arrival phase: split the release batch into subcolors with at most h
	// jobs each (h is the inner delay bound of the outer color). Jobs are
	// processed in release order and subcolor ids are created on first
	// appearance — exactly the order reduce.DistributeSequence uses, so the
	// streaming inner instance is identical to the batch pipeline's,
	// including the "consistent order of colors" tie-breaks.
	// A run of same-colored jobs (one color has one delay bound) shares h
	// and its rank counter, and looks a subcolor up once per bucket.
	arrivals := st.arrivals[:0]
	rank := st.rank
	clear(rank)
	for i := 0; i < len(released); {
		outer := released[i].Color
		h := reduce.BatchedDelay(released[i].Delay)
		n := rank[outer]
		ic, bucket := model.Black, int64(-1)
		for ; i < len(released) && released[i].Color == outer; i++ {
			if b := n / h; b != bucket {
				ic, bucket = st.subcolor(outer, b, h), b
			}
			n++
			st.pending[ic].Push(r + h)
			arrivals = append(arrivals, model.Job{Color: ic, Arrival: r, Delay: h})
		}
		rank[outer] = n
	}
	st.arrivals = arrivals
	st.tracker.ArrivalPhase(st.view(), arrivals)

	// Reconfiguration phase: ΔLRU-EDF target, then minimal placement.
	target := core.ComputeTarget(st.tracker, st.view(), st.n/4)
	st.place(target)

	// Execution phase: each inner location executes one pending job of its
	// color.
	for loc := 0; loc < st.n; loc++ {
		c := st.locColor[loc]
		if c == model.Black {
			continue
		}
		if q := &st.pending[c]; q.Len() > 0 {
			q.Pop()
		}
	}
	return target
}

// place realizes the target inner color set with two locations per color,
// mirroring the batch engine's placement (evict in color order, reuse
// still-colored free locations). target must hold distinct colors.
func (st *innerState) place(target []model.Color) {
	for _, c := range target {
		st.want[c] = true
	}
	for c, locs := range st.colorLocs {
		if len(locs) > 0 && !st.want[c] {
			st.freeLocs = append(st.freeLocs, locs...)
			st.colorLocs[c] = locs[:0]
		}
	}
	for _, c := range target {
		st.want[c] = false
		if len(st.colorLocs[c]) > 0 {
			continue
		}
		locs := st.colorLocs[c][:0]
		for i := 0; i < 2; i++ {
			loc := st.takeFree(c)
			st.locColor[loc] = c
			locs = append(locs, loc)
		}
		st.colorLocs[c] = locs
	}
}

func (st *innerState) takeFree(c model.Color) int {
	n := len(st.freeLocs)
	for i := n - 1; i >= 0; i-- {
		if st.locColor[st.freeLocs[i]] == c {
			loc := st.freeLocs[i]
			st.freeLocs[i] = st.freeLocs[n-1]
			st.freeLocs = st.freeLocs[:n-1]
			return loc
		}
	}
	loc := st.freeLocs[n-1]
	st.freeLocs = st.freeLocs[:n-1]
	return loc
}

// view adapts innerState to sim.View for the tracker and target computation.
func (st *innerState) view() *innerView { return &st.v }

type innerView struct{ st *innerState }

func (v *innerView) Round() int64   { return v.st.now }
func (v *innerView) Mini() int      { return 0 }
func (v *innerView) Resources() int { return v.st.n }
func (v *innerView) Slots() int     { return v.st.n / 2 }
func (v *innerView) Delta() int64   { return v.st.delta }
func (v *innerView) Pending(c model.Color) int {
	if c < 0 || int(c) >= len(v.st.pending) {
		return 0
	}
	return v.st.pending[c].Len()
}
func (v *innerView) Cached(c model.Color) bool {
	return c >= 0 && int(c) < len(v.st.colorLocs) && len(v.st.colorLocs[c]) > 0
}

// CachedColors returns the cached inner colors in ascending order. The slice
// is reused: it is valid until the next call.
func (v *innerView) CachedColors() []model.Color {
	out := v.st.cached[:0]
	for c, locs := range v.st.colorLocs {
		if len(locs) > 0 {
			out = append(out, model.Color(c))
		}
	}
	v.st.cached = out
	return out
}
func (v *innerView) DelayBound(c model.Color) int64 {
	if int(c) < len(v.st.toOuter) {
		// The tracker owns the registered delay; reconstruct from the
		// subcolor's outer color is unnecessary — consult the tracker.
		return v.st.tracker.DelayBoundOf(c)
	}
	return 0
}
func (v *innerView) Universe() []model.Color {
	out := make([]model.Color, len(v.st.toOuter))
	for i := range out {
		out[i] = model.Color(i)
	}
	return out
}
