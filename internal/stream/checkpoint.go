package stream

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"rrsched/internal/core"
	"rrsched/internal/model"
)

// checkpoint is the JSON image of a Scheduler: every piece of outer and inner
// state, with map contents flattened into sorted slices so equal schedulers
// produce byte-identical snapshots.
type checkpoint struct {
	Version   int   `json:"version"`
	Delta     int64 `json:"delta"`
	Resources int   `json:"resources"`
	Round     int64 `json:"round"`

	Cost         model.Cost `json:"cost"`
	Executed     int        `json:"executed"`
	Dropped      int        `json:"dropped"`
	PushedJobs   int        `json:"pushed_jobs"`
	MaxScheduled int64      `json:"max_scheduled"`

	Delays   []colorDelayCP   `json:"delays,omitempty"`
	Pending  []outerPendingCP `json:"pending,omitempty"`
	Releases []releaseCP      `json:"releases,omitempty"`
	LocColor []model.Color    `json:"loc_color"`

	Inner innerCP `json:"inner"`
}

type colorDelayCP struct {
	Color model.Color `json:"color"`
	Delay int64       `json:"delay"`
}

type jobCP struct {
	ID      int64       `json:"id"`
	Color   model.Color `json:"color"`
	Arrival int64       `json:"arrival"`
	Delay   int64       `json:"delay"`
}

type outerPendingCP struct {
	Color model.Color `json:"color"`
	Jobs  []jobCP     `json:"jobs"`
}

type releaseCP struct {
	Round int64   `json:"round"`
	Jobs  []jobCP `json:"jobs"`
}

type innerCP struct {
	Now       int64                   `json:"now"`
	ToOuter   []model.Color           `json:"to_outer,omitempty"`
	Subcolors []subcolorCP            `json:"subcolors,omitempty"`
	Pending   []innerPendingCP        `json:"pending,omitempty"`
	LocColor  []model.Color           `json:"loc_color"`
	ColorLocs []colorLocsCP           `json:"color_locs,omitempty"`
	FreeLocs  []int                   `json:"free_locs,omitempty"`
	Tracker   *core.TrackerCheckpoint `json:"tracker"`
}

type subcolorCP struct {
	Outer  model.Color `json:"outer"`
	Bucket int64       `json:"bucket"`
	Inner  model.Color `json:"inner"`
}

type innerPendingCP struct {
	Color     model.Color `json:"color"`
	Deadlines []int64     `json:"deadlines"`
}

type colorLocsCP struct {
	Color model.Color `json:"color"`
	Locs  []int       `json:"locs"`
}

const checkpointVersion = 1

func toJobCPs(jobs []model.Job) []jobCP {
	out := make([]jobCP, len(jobs))
	for i, j := range jobs {
		out[i] = jobCP{ID: j.ID, Color: j.Color, Arrival: j.Arrival, Delay: j.Delay}
	}
	return out
}

func fromJobCPs(jobs []jobCP) []model.Job {
	out := make([]model.Job, len(jobs))
	for i, j := range jobs {
		out[i] = model.Job{ID: j.ID, Color: j.Color, Arrival: j.Arrival, Delay: j.Delay}
	}
	return out
}

// Snapshot serializes the scheduler's complete state as JSON. The snapshot is
// deterministic (equal schedulers yield identical bytes) and self-contained:
// Restore on it resumes the run with decisions identical to an uninterrupted
// scheduler fed the same pushes. AppendBinary writes the same image in the
// compact binary form; Snapshot stays the public, human-readable format and
// the oracle the binary codec is tested against.
func (s *Scheduler) Snapshot() ([]byte, error) {
	cp, err := s.image()
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(cp, "", "  ")
}

// image builds the checkpoint image of the scheduler: the one description of
// its state that both codecs serialize. Map contents are flattened into
// sorted slices; slices of the live state are aliased, not copied, so the
// image must be serialized before the scheduler moves on.
func (s *Scheduler) image() (*checkpoint, error) {
	tcp, err := s.inner.tracker.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("stream: snapshot: %w", err)
	}
	cp := &checkpoint{
		Version:      checkpointVersion,
		Delta:        s.cfg.Delta,
		Resources:    s.cfg.Resources,
		Round:        s.round,
		Cost:         s.cost,
		Executed:     s.executed,
		Dropped:      s.dropped,
		PushedJobs:   s.pushedJobs,
		MaxScheduled: s.maxScheduled,
		LocColor:     s.locColor,
	}
	for c, d := range s.delays {
		cp.Delays = append(cp.Delays, colorDelayCP{Color: c, Delay: d})
	}
	slices.SortFunc(cp.Delays, func(a, b colorDelayCP) int { return cmp.Compare(a.Color, b.Color) })
	for _, cq := range s.pendingOrder {
		if cq.q.Len() == 0 {
			continue
		}
		cp.Pending = append(cp.Pending, outerPendingCP{Color: cq.color, Jobs: toJobCPs(cq.q.Items())})
	}
	for r, jobs := range s.futureReleases {
		cp.Releases = append(cp.Releases, releaseCP{Round: r, Jobs: toJobCPs(jobs)})
	}
	slices.SortFunc(cp.Releases, func(a, b releaseCP) int { return cmp.Compare(a.Round, b.Round) })

	st := s.inner
	cp.Inner = innerCP{
		Now:      st.now,
		ToOuter:  st.toOuter,
		LocColor: st.locColor,
		FreeLocs: st.freeLocs,
		Tracker:  tcp,
	}
	for k, ic := range st.inner {
		cp.Inner.Subcolors = append(cp.Inner.Subcolors, subcolorCP{Outer: k.outer, Bucket: k.j, Inner: ic})
	}
	slices.SortFunc(cp.Inner.Subcolors, func(a, b subcolorCP) int { return cmp.Compare(a.Inner, b.Inner) })
	for c := range st.pending {
		if q := &st.pending[c]; q.Len() > 0 {
			cp.Inner.Pending = append(cp.Inner.Pending, innerPendingCP{Color: model.Color(c), Deadlines: q.Items()})
		}
	}
	for c, locs := range st.colorLocs {
		if len(locs) > 0 {
			cp.Inner.ColorLocs = append(cp.Inner.ColorLocs, colorLocsCP{Color: model.Color(c), Locs: locs})
		}
	}
	return cp, nil
}

// Restore rebuilds a scheduler from a Snapshot. The checkpoint is validated
// field by field — a corrupted or truncated snapshot is rejected with an
// error rather than resumed into an inconsistent run.
func Restore(data []byte) (*Scheduler, error) {
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("stream: decoding checkpoint: %w", err)
	}
	return fromImage(&cp)
}

// fromImage validates a decoded checkpoint image and builds the scheduler it
// describes: the one validate-and-build step behind both codecs, so a check
// added here guards Restore and RestoreBinary alike. Sizes are checked
// against the image's own slices before anything is allocated by them.
func fromImage(cp *checkpoint) (*Scheduler, error) {
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	cfg := Config{Delta: cp.Delta, Resources: cp.Resources}
	if err := cfg.validate(); err != nil {
		return nil, fmt.Errorf("stream: restoring checkpoint: %w", err)
	}
	if cp.Round < 0 {
		return nil, fmt.Errorf("stream: checkpoint has negative round %d", cp.Round)
	}
	if cp.Executed < 0 || cp.Dropped < 0 || cp.PushedJobs < 0 || cp.Executed+cp.Dropped > cp.PushedJobs {
		return nil, fmt.Errorf("stream: checkpoint job accounting is inconsistent (%d executed, %d dropped, %d pushed)",
			cp.Executed, cp.Dropped, cp.PushedJobs)
	}
	if len(cp.LocColor) != cp.Resources {
		return nil, fmt.Errorf("stream: checkpoint has %d outer locations, want %d", len(cp.LocColor), cp.Resources)
	}
	if len(cp.Inner.LocColor) != cp.Resources {
		return nil, fmt.Errorf("stream: checkpoint has %d inner locations, want %d", len(cp.Inner.LocColor), cp.Resources)
	}
	s, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("stream: restoring checkpoint: %w", err)
	}
	s.round = cp.Round
	s.cost = cp.Cost
	s.executed = cp.Executed
	s.dropped = cp.Dropped
	s.pushedJobs = cp.PushedJobs
	s.maxScheduled = cp.MaxScheduled
	copy(s.locColor, cp.LocColor)
	for _, d := range cp.Delays {
		if d.Color < 0 || d.Delay <= 0 {
			return nil, fmt.Errorf("stream: checkpoint has invalid delay bound %d for color %v", d.Delay, d.Color)
		}
		s.delays[d.Color] = d.Delay
	}
	for _, p := range cp.Pending {
		if _, ok := s.pendingByColor[p.Color]; ok {
			return nil, fmt.Errorf("stream: checkpoint repeats pending color %v", p.Color)
		}
		q := s.queueOf(p.Color)
		for _, j := range fromJobCPs(p.Jobs) {
			if err := j.Validate(); err != nil {
				return nil, fmt.Errorf("stream: checkpoint pending job: %w", err)
			}
			if s.inflight[j.ID] {
				return nil, fmt.Errorf("stream: checkpoint repeats pending job id %d", j.ID)
			}
			s.inflight[j.ID] = true
			q.Push(j)
		}
	}
	// Pending counts what the queues hold: a count the queues cannot back
	// would leave Drain waiting forever for jobs that are not there.
	if len(s.inflight) != s.Pending() {
		return nil, fmt.Errorf("stream: checkpoint holds %d pending jobs, its accounting says %d (%d pushed, %d executed, %d dropped)",
			len(s.inflight), s.Pending(), cp.PushedJobs, cp.Executed, cp.Dropped)
	}
	// Release jobs feed the inner simulation at their round, which trusts
	// them the way Push trusts validated arrivals: each must be a valid job
	// of its color's registered bound, listed under its own VarBatch release
	// round, no earlier than the round the scheduler resumes at, and listed
	// once.
	releaseSeen := make(map[int64]bool)
	for _, r := range cp.Releases {
		if _, ok := s.futureReleases[r.Round]; ok {
			return nil, fmt.Errorf("stream: checkpoint repeats release round %d", r.Round)
		}
		if r.Round < cp.Round {
			return nil, fmt.Errorf("stream: checkpoint release round %d precedes the checkpoint round %d", r.Round, cp.Round)
		}
		jobs := fromJobCPs(r.Jobs)
		for _, j := range jobs {
			if err := j.Validate(); err != nil {
				return nil, fmt.Errorf("stream: checkpoint release job: %w", err)
			}
			if d, ok := s.delays[j.Color]; !ok || d != j.Delay {
				return nil, fmt.Errorf("stream: checkpoint release job %d has delay bound %d, color %v registers %d", j.ID, j.Delay, j.Color, d)
			}
			if rr := releaseRound(j); rr != r.Round {
				return nil, fmt.Errorf("stream: checkpoint lists release job %d under round %d, it releases at %d", j.ID, r.Round, rr)
			}
			if releaseSeen[j.ID] {
				return nil, fmt.Errorf("stream: checkpoint repeats release job id %d", j.ID)
			}
			releaseSeen[j.ID] = true
		}
		s.futureReleases[r.Round] = jobs
	}

	st := s.inner
	st.now = cp.Inner.Now
	st.toOuter = append([]model.Color(nil), cp.Inner.ToOuter...)
	// Every per-inner-color slice is sized by the inner colors the checkpoint
	// lists, never by a color value it holds: a color at or past len(to_outer)
	// is rejected wherever one appears.
	nInner := len(st.toOuter)
	st.setColors(nInner)
	innerColor := func(c model.Color) bool { return c >= 0 && int(c) < nInner }
	for loc, c := range cp.Inner.LocColor {
		if c != model.Black && !innerColor(c) {
			return nil, fmt.Errorf("stream: checkpoint inner location %d holds color %v outside the %d inner colors", loc, c, nInner)
		}
	}
	copy(st.locColor, cp.Inner.LocColor)
	st.freeLocs = append(st.freeLocs[:0], cp.Inner.FreeLocs...)
	// Each inner color is one subcolor key, listed once.
	st.buckets = make([]int64, nInner)
	seenInner := make([]bool, nInner)
	for _, sc := range cp.Inner.Subcolors {
		if !innerColor(sc.Inner) {
			return nil, fmt.Errorf("stream: checkpoint subcolor %v out of range", sc.Inner)
		}
		if st.toOuter[sc.Inner] != sc.Outer {
			return nil, fmt.Errorf("stream: checkpoint subcolor %v maps to outer %v, table says %v",
				sc.Inner, sc.Outer, st.toOuter[sc.Inner])
		}
		k := subKey{outer: sc.Outer, j: sc.Bucket}
		if _, ok := st.inner[k]; ok {
			return nil, fmt.Errorf("stream: checkpoint repeats subcolor key (%v,%d)", sc.Outer, sc.Bucket)
		}
		if seenInner[sc.Inner] {
			return nil, fmt.Errorf("stream: checkpoint repeats subcolor %v", sc.Inner)
		}
		seenInner[sc.Inner] = true
		st.inner[k] = sc.Inner
		st.buckets[sc.Inner] = sc.Bucket
	}
	if len(st.inner) != len(st.toOuter) {
		return nil, fmt.Errorf("stream: checkpoint has %d subcolor keys for %d inner colors", len(st.inner), len(st.toOuter))
	}
	seenPending := make([]bool, nInner)
	for _, p := range cp.Inner.Pending {
		if !innerColor(p.Color) {
			return nil, fmt.Errorf("stream: checkpoint inner pending color %v outside the %d inner colors", p.Color, nInner)
		}
		if seenPending[p.Color] {
			return nil, fmt.Errorf("stream: checkpoint repeats inner pending color %v", p.Color)
		}
		seenPending[p.Color] = true
		for _, d := range p.Deadlines {
			st.pending[p.Color].Push(d)
		}
	}
	seenLoc := make([]bool, cp.Resources)
	for _, cl := range cp.Inner.ColorLocs {
		if !innerColor(cl.Color) {
			return nil, fmt.Errorf("stream: checkpoint caches color %v outside the %d inner colors", cl.Color, nInner)
		}
		if len(st.colorLocs[cl.Color]) > 0 {
			return nil, fmt.Errorf("stream: checkpoint repeats cached color %v", cl.Color)
		}
		if len(cl.Locs) == 0 {
			return nil, fmt.Errorf("stream: checkpoint caches color %v on no location", cl.Color)
		}
		for _, loc := range cl.Locs {
			if loc < 0 || loc >= cp.Resources {
				return nil, fmt.Errorf("stream: checkpoint places color %v on location %d of %d", cl.Color, loc, cp.Resources)
			}
			if seenLoc[loc] {
				return nil, fmt.Errorf("stream: checkpoint places two colors on location %d", loc)
			}
			seenLoc[loc] = true
		}
		st.colorLocs[cl.Color] = append([]int(nil), cl.Locs...)
	}
	for _, loc := range st.freeLocs {
		if loc < 0 || loc >= cp.Resources {
			return nil, fmt.Errorf("stream: checkpoint frees location %d of %d", loc, cp.Resources)
		}
		if seenLoc[loc] {
			return nil, fmt.Errorf("stream: checkpoint lists location %d as both cached and free", loc)
		}
		seenLoc[loc] = true
	}
	for loc, used := range seenLoc {
		if !used {
			return nil, fmt.Errorf("stream: checkpoint leaves location %d neither cached nor free", loc)
		}
	}
	tracker, err := core.RestoreTracker(cp.Inner.Tracker)
	if err != nil {
		return nil, fmt.Errorf("stream: restoring checkpoint: %w", err)
	}
	for _, cc := range cp.Inner.Tracker.Colors {
		if !innerColor(cc.Color) {
			return nil, fmt.Errorf("stream: checkpoint tracker color %v outside the %d inner colors", cc.Color, nInner)
		}
	}
	st.tracker = tracker
	for _, sc := range cp.Inner.Subcolors {
		if tracker.DelayBoundOf(sc.Inner) == 0 {
			return nil, fmt.Errorf("stream: checkpoint subcolor %v missing from tracker", sc.Inner)
		}
	}
	return s, nil
}
