package sim

import (
	"fmt"

	"rrsched/internal/model"
	"rrsched/internal/obs"
	"rrsched/internal/queue"
)

// state implements View and owns the mutable simulation state.
//
// The round loop is the product's hot path, so the state is laid out for a
// zero-allocation steady state: colors are mapped once to dense indices and
// every per-color structure (pending queue, cached locations, reconfigure
// marks) is a slice indexed by that dense index; a deadline-bucket index
// makes the drop phase touch only the colors actually due instead of ranging
// over a map of all colors every round; and the per-round scratch (the
// dropped-counts map, the eviction list, the cached-colors view) is
// preallocated and reused across rounds. All orders (eviction, placement,
// execution) are the ones the original map-based implementation used. The
// determinism regression test only compares a run with a second run of the
// same code; the golden digests in internal/core/golden_test.go pin the
// schedules across versions.
type state struct {
	env   Env
	round int64
	mini  int

	// seqUniverse is the sequence's color set in ascending order (the View's
	// Universe). colors additionally holds any colors a policy targeted that
	// never appear in the sequence, appended on demand; dense indices point
	// into colors.
	seqUniverse []model.Color
	colors      []model.Color
	colorIdx    map[model.Color]int32

	pending []queue.Ring[model.Job] // per-color pending jobs, by dense index

	// Deadline index for the drop phase: dueBuckets[k] lists the dense color
	// indices with at least one job whose deadline is k. lastDue dedupes —
	// per color, the highest deadline already enqueued (per-color deadlines
	// are nondecreasing in arrival order). duePool recycles bucket slices.
	dueBuckets map[int64][]int32
	lastDue    []int64
	duePool    [][]int32

	locColor    []model.Color // color at each location
	locColorIdx []int32       // dense index of locColor (-1 for black)
	colorLocs   [][]int       // locations of each cached color, by dense index
	cached      []int32       // cached color indices, ascending by color value
	freeLocs    []int         // up locations holding no cached color (black or orphaned)
	down        []bool        // down locations: never in colorLocs or freeLocs

	// Reconfigure scratch: wantMark[ci] == wantStamp marks a targeted color.
	wantMark  []int64
	wantStamp int64

	droppedScratch map[model.Color]int // DropPhase callback argument, reused
	cachedScratch  []model.Color       // CachedColors view, reused

	sched        *model.Schedule
	cost         model.Cost
	executed     int
	droppedTotal int
	dropsByColor map[model.Color]int

	// in is the resolved observability attachment (nil when Env.Obs is nil);
	// every hook below is a single pointer test in the unobserved case.
	in *instr
}

func newState(env Env) *state {
	universe := env.Seq.Colors()
	nc := len(universe)
	st := &state{
		env:            env,
		seqUniverse:    universe,
		colors:         universe,
		colorIdx:       make(map[model.Color]int32, nc),
		pending:        make([]queue.Ring[model.Job], nc),
		dueBuckets:     make(map[int64][]int32),
		lastDue:        make([]int64, nc),
		colorLocs:      make([][]int, nc),
		cached:         make([]int32, 0, env.Slots()),
		wantMark:       make([]int64, nc),
		droppedScratch: make(map[model.Color]int),
		cachedScratch:  make([]model.Color, 0, env.Slots()),
		sched:          model.NewSchedule(env.Resources, env.Speed),
		dropsByColor:   make(map[model.Color]int),
	}
	for i, c := range universe {
		st.colorIdx[c] = int32(i)
	}
	// One backing array for all location lists: a color never holds more
	// than Replication locations, so each color gets a fixed-capacity
	// sub-slice and the steady state never grows them.
	locsBacking := make([]int, nc*env.Replication)
	for i := range st.colorLocs {
		st.colorLocs[i] = locsBacking[i*env.Replication : i*env.Replication : (i+1)*env.Replication]
	}
	// Executions are bounded by the job count; reserving up front keeps the
	// execution phase allocation-free.
	st.sched.Execs = make([]model.Execution, 0, env.Seq.NumJobs())
	st.locColor = make([]model.Color, env.Resources)
	st.locColorIdx = make([]int32, env.Resources)
	st.down = make([]bool, env.Resources)
	st.freeLocs = make([]int, env.Resources)
	for i := range st.locColor {
		st.locColor[i] = model.Black
		st.locColorIdx[i] = -1
		st.freeLocs[i] = env.Resources - 1 - i // pop from the back => ascending use
	}
	return st
}

// index returns the dense index of color c, extending the color table when a
// policy targets a color outside the sequence universe (legal, if useless).
func (s *state) index(c model.Color) int32 {
	if ci, ok := s.colorIdx[c]; ok {
		return ci
	}
	ci := int32(len(s.colors))
	s.colors = append(s.colors, c)
	s.colorIdx[c] = ci
	s.pending = append(s.pending, queue.Ring[model.Job]{})
	s.lastDue = append(s.lastDue, 0)
	s.colorLocs = append(s.colorLocs, make([]int, 0, s.env.Replication))
	s.wantMark = append(s.wantMark, 0)
	return ci
}

// --- View ---

func (s *state) Round() int64   { return s.round }
func (s *state) Mini() int      { return s.mini }
func (s *state) Resources() int { return s.env.Resources }
func (s *state) Slots() int     { return s.env.Slots() }
func (s *state) Delta() int64   { return s.env.Seq.Delta() }
func (s *state) Universe() []model.Color {
	return s.seqUniverse
}

func (s *state) Pending(c model.Color) int {
	ci, ok := s.colorIdx[c]
	if !ok {
		return 0
	}
	return s.pending[ci].Len()
}

func (s *state) Cached(c model.Color) bool {
	ci, ok := s.colorIdx[c]
	return ok && len(s.colorLocs[ci]) > 0
}

func (s *state) CachedColors() []model.Color {
	s.cachedScratch = s.cachedScratch[:0]
	for _, ci := range s.cached {
		s.cachedScratch = append(s.cachedScratch, s.colors[ci])
	}
	return s.cachedScratch
}

func (s *state) DelayBound(c model.Color) int64 {
	d, _ := s.env.Seq.DelayBound(c)
	return d
}

// --- phases ---

// applyFaults realizes the fault plan's transitions for round k. Repairs are
// processed before crashes so back-to-back outages on the same resource
// compose, matching the audit's event order.
func (s *state) applyFaults(k int64) {
	f := s.env.Faults
	if f == nil {
		return
	}
	for r := 0; r < s.env.Resources; r++ {
		if s.down[r] && !f.Down(r, k) {
			s.repair(r)
			s.in.observeFault(k, r, obs.EventRepair)
		}
	}
	for r := 0; r < s.env.Resources; r++ {
		if !s.down[r] && f.Down(r, k) {
			s.crash(r)
			s.in.observeFault(k, r, obs.EventCrash)
		}
	}
}

// crash takes a location down and evicts its cached color, if any: the lost
// replica must be re-placed at cost Delta, while surviving replicas return to
// the free pool keeping their physical color, so re-admitting the color
// reuses them for free. The crashed location itself is wiped to black.
func (s *state) crash(loc int) {
	s.down[loc] = true
	for i, f := range s.freeLocs {
		if f == loc {
			s.freeLocs[i] = s.freeLocs[len(s.freeLocs)-1]
			s.freeLocs = s.freeLocs[:len(s.freeLocs)-1]
			break
		}
	}
	if ci := s.locColorIdx[loc]; ci >= 0 {
		locs := s.colorLocs[ci]
		member := false
		for _, l := range locs {
			if l == loc {
				member = true
				break
			}
		}
		if member {
			for _, l := range locs {
				if l != loc {
					s.freeLocs = append(s.freeLocs, l)
				}
			}
			s.colorLocs[ci] = locs[:0]
			s.uncache(ci)
		}
	}
	s.locColor[loc] = model.Black
	s.locColorIdx[loc] = -1
}

// repair brings a location back up, blank (its color was wiped at crash); it
// rejoins the free pool and must be recolored before executing again.
func (s *state) repair(loc int) {
	s.down[loc] = false
	s.freeLocs = append(s.freeLocs, loc)
}

// dropDue removes every pending job whose deadline equals round k, guided by
// the deadline index: only colors with a bucket entry at k are touched. The
// returned map is scratch, valid until the next round.
func (s *state) dropDue(k int64) map[model.Color]int {
	clear(s.droppedScratch)
	bucket, ok := s.dueBuckets[k]
	if !ok {
		return s.droppedScratch
	}
	for _, ci := range bucket {
		q := &s.pending[ci]
		n := 0
		for q.Len() > 0 && q.Peek().Deadline() <= k {
			q.Pop()
			n++
		}
		if n > 0 {
			c := s.colors[ci]
			s.droppedScratch[c] = n
			s.cost.Drop += int64(n)
			s.droppedTotal += n
			s.dropsByColor[c] += n
			s.in.observeDrop(k, ci, c, n)
		}
	}
	delete(s.dueBuckets, k)
	s.duePool = append(s.duePool, bucket[:0])
	return s.droppedScratch
}

func (s *state) admit(jobs []model.Job) {
	s.in.observeArrival(s.round, len(jobs))
	for _, j := range jobs {
		ci := s.index(j.Color)
		s.pending[ci].Push(j)
		// Per-color deadlines are nondecreasing (same delay bound, arrival
		// order), so one bucket entry per distinct (color, deadline) suffices.
		if d := j.Deadline(); d > s.lastDue[ci] {
			s.lastDue[ci] = d
			bucket, ok := s.dueBuckets[d]
			if !ok && len(s.duePool) > 0 {
				bucket = s.duePool[len(s.duePool)-1]
				s.duePool = s.duePool[:len(s.duePool)-1]
			}
			s.dueBuckets[d] = append(bucket, ci)
		}
	}
}

// uncache removes a color index from the cached list, preserving order.
func (s *state) uncache(ci int32) {
	for i, x := range s.cached {
		if x == ci {
			s.cached = append(s.cached[:i], s.cached[i+1:]...)
			return
		}
	}
}

// encache inserts a color index into the cached list, keeping it ascending
// by color value (the paper's consistent order of colors).
func (s *state) encache(ci int32) {
	c := s.colors[ci]
	pos := len(s.cached)
	for i, x := range s.cached {
		if s.colors[x] > c {
			pos = i
			break
		}
	}
	s.cached = append(s.cached, 0)
	copy(s.cached[pos+1:], s.cached[pos:])
	s.cached[pos] = ci
}

// reconfigure realizes the target color set: colors leaving the cache free
// their locations, colors entering claim Replication free locations each.
// Unchanged colors keep their locations, so only genuine recolorings cost.
func (s *state) reconfigure(target []model.Color) error {
	s.wantStamp++
	stamp := s.wantStamp
	for _, c := range target {
		if c == model.Black {
			return fmt.Errorf("policy targeted the black color")
		}
		ci := s.index(c)
		if s.wantMark[ci] == stamp {
			return fmt.Errorf("policy targeted color %v twice", c)
		}
		s.wantMark[ci] = stamp
	}
	if len(target) > s.env.Slots() {
		return fmt.Errorf("policy targeted %d colors with only %d slots", len(target), s.env.Slots())
	}

	// Evict colors no longer wanted. Eviction is logical: the location keeps
	// its physical color (and keeps executing that color's jobs, as in the
	// paper's model) until another color overwrites it. The cached list is
	// kept in ascending color order, so location assignment — and therefore
	// the recorded schedule — is deterministic.
	for i := 0; i < len(s.cached); {
		ci := s.cached[i]
		if s.wantMark[ci] == stamp {
			i++
			continue
		}
		s.freeLocs = append(s.freeLocs, s.colorLocs[ci]...)
		s.colorLocs[ci] = s.colorLocs[ci][:0]
		s.cached = append(s.cached[:i], s.cached[i+1:]...)
	}
	// Admit new colors and top up under-replicated ones (a crash evicts a
	// color; on re-admission, or once repairs refill the pool, it regains its
	// Replication locations). A free location that still physically holds the
	// color is reused at zero cost: the resource was never recolored, so no
	// reconfiguration happens. Under faults, down resources can shrink the
	// pool below Slots()*Replication, so placement is best-effort: each color
	// gets up to Replication replicas while free locations last. Without
	// faults the pool always suffices and every color gets all replicas.
	for _, c := range target {
		ci := s.colorIdx[c]
		locs := s.colorLocs[ci]
		had := len(locs)
		for len(locs) < s.env.Replication && len(s.freeLocs) > 0 {
			loc, reused := s.takeFreeLoc(c)
			locs = append(locs, loc)
			if !reused {
				s.locColor[loc] = c
				s.locColorIdx[loc] = ci
				s.sched.AddReconfig(s.round, s.mini, loc, c)
				s.cost.Reconfig += s.env.Seq.Delta()
				s.in.observeReconfig(s.round, s.mini, loc, c, s.env.Seq.Delta())
			}
		}
		s.colorLocs[ci] = locs
		if had == 0 && len(locs) > 0 {
			s.encache(ci)
		}
	}
	return nil
}

// takeFreeLoc pops a free location for color c, preferring one that already
// physically holds c (reused == true, no reconfiguration needed).
func (s *state) takeFreeLoc(c model.Color) (loc int, reused bool) {
	n := len(s.freeLocs)
	for i := n - 1; i >= 0; i-- {
		if s.locColor[s.freeLocs[i]] == c {
			loc = s.freeLocs[i]
			s.freeLocs[i] = s.freeLocs[n-1]
			s.freeLocs = s.freeLocs[:n-1]
			return loc, true
		}
	}
	loc = s.freeLocs[n-1]
	s.freeLocs = s.freeLocs[:n-1]
	return loc, false
}

// execute runs the execution phase of the current mini-round: every location
// executes the earliest-deadline pending job of its physical color, if any.
// A location whose color was logically evicted but not yet overwritten still
// executes: in the paper's model a resource stays configured to its color
// until recolored. The phase is allocation-free in steady state: the dense
// location->color index avoids map lookups and the execution log was
// capacity-reserved at construction.
func (s *state) execute() {
	for loc := 0; loc < s.env.Resources; loc++ {
		if s.down[loc] {
			continue
		}
		ci := s.locColorIdx[loc]
		if ci < 0 {
			continue
		}
		q := &s.pending[ci]
		if q.Len() == 0 {
			continue
		}
		j := q.Pop()
		s.sched.AddExec(s.round, s.mini, loc, j.ID)
		s.executed++
		s.in.observeExec(s.round, s.mini, loc, s.colors[ci], j)
	}
}
