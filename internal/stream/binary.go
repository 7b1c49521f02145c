package stream

import (
	"cmp"
	"fmt"
	"slices"

	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/varint"
)

// The binary image is the checkpoint image of Snapshot written as varints in
// a fixed field order: the same fields, the same validation on the way back
// in (fromImage), a fraction of the bytes and none of the reflection. It is
// canonical — equal schedulers yield identical bytes — and carries the
// checkpoint version first, so a future layout refuses old images instead of
// misreading them.
//
// Layout, every integer a zigzag varint and every count an unsigned varint:
//
//	version delta resources round cost.reconfig cost.drop executed dropped
//	pushed_jobs max_scheduled
//	delays:   count, then (color delay)*
//	pending:  count, then (color jobs)*        jobs = count, then (id color arrival delay)*
//	releases: count, then (round jobs)*
//	loc_color: count, then color*
//	inner: now, to_outer (count, color*), subcolors (count, (outer bucket inner)*),
//	       pending (count, (color count deadline*)*), loc_color (count, color*),
//	       color_locs (count, (color count loc*)*), free_locs (count, loc*)
//	tracker: delta timestamp_k completed_epochs eligible_drops ineligible_drops,
//	         colors: count, then (color delay cnt deadline eligible seen wraps)*
//	         with eligible and seen one byte each and wraps = count, then wrap*

// AppendBinary appends the scheduler's binary checkpoint image to b.
// RestoreBinary on the appended bytes resumes the run exactly as Restore on
// Snapshot does. It writes the image straight from the scheduler's state,
// in the order the image struct that Snapshot builds would hold it, and
// allocates nothing beyond b's growth.
func (s *Scheduler) AppendBinary(b []byte) ([]byte, error) {
	tr := s.inner.tracker
	tcp, trackerColors, err := tr.CheckpointHead()
	if err != nil {
		return b, fmt.Errorf("stream: snapshot: %w", err)
	}
	b = varint.AppendInt(b, checkpointVersion)
	b = varint.AppendInt(b, s.cfg.Delta)
	b = varint.AppendInt(b, int64(s.cfg.Resources))
	b = varint.AppendInt(b, s.round)
	b = varint.AppendInt(b, s.cost.Reconfig)
	b = varint.AppendInt(b, s.cost.Drop)
	b = varint.AppendInt(b, int64(s.executed))
	b = varint.AppendInt(b, int64(s.dropped))
	b = varint.AppendInt(b, int64(s.pushedJobs))
	b = varint.AppendInt(b, s.maxScheduled)

	// The maps are written in key order, sorted in buffers that stay on the
	// stack for the shapes the service runs.
	var delayBuf [128]colorDelayCP
	delays := delayBuf[:0]
	for c, d := range s.delays {
		delays = append(delays, colorDelayCP{Color: c, Delay: d})
	}
	slices.SortFunc(delays, func(a, b colorDelayCP) int { return cmp.Compare(a.Color, b.Color) })
	b = varint.AppendLen(b, len(delays))
	for _, d := range delays {
		b = varint.AppendInt(b, int64(d.Color))
		b = varint.AppendInt(b, d.Delay)
	}
	queued := 0
	for _, cq := range s.pendingOrder {
		if cq.q.Len() > 0 {
			queued++
		}
	}
	b = varint.AppendLen(b, queued)
	for _, cq := range s.pendingOrder {
		if cq.q.Len() == 0 {
			continue
		}
		b = varint.AppendInt(b, int64(cq.color))
		b = varint.AppendLen(b, cq.q.Len())
		for i := 0; i < cq.q.Len(); i++ {
			b = appendJob(b, cq.q.At(i))
		}
	}
	var roundBuf [32]int64
	rounds := roundBuf[:0]
	for r := range s.futureReleases {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	b = varint.AppendLen(b, len(rounds))
	for _, r := range rounds {
		b = varint.AppendInt(b, r)
		jobs := s.futureReleases[r]
		b = varint.AppendLen(b, len(jobs))
		for _, j := range jobs {
			b = appendJob(b, j)
		}
	}
	b = appendColors(b, s.locColor)

	st := s.inner
	b = varint.AppendInt(b, st.now)
	b = appendColors(b, st.toOuter)
	b = varint.AppendLen(b, len(st.toOuter))
	for ic, outer := range st.toOuter {
		b = varint.AppendInt(b, int64(outer))
		b = varint.AppendInt(b, st.buckets[ic])
		b = varint.AppendInt(b, int64(ic))
	}
	queued = 0
	for c := range st.pending {
		if st.pending[c].Len() > 0 {
			queued++
		}
	}
	b = varint.AppendLen(b, queued)
	for c := range st.pending {
		q := &st.pending[c]
		if q.Len() == 0 {
			continue
		}
		b = varint.AppendInt(b, int64(c))
		b = varint.AppendLen(b, q.Len())
		for i := 0; i < q.Len(); i++ {
			b = varint.AppendInt(b, q.At(i))
		}
	}
	b = appendColors(b, st.locColor)
	cached := 0
	for _, locs := range st.colorLocs {
		if len(locs) > 0 {
			cached++
		}
	}
	b = varint.AppendLen(b, cached)
	for c, locs := range st.colorLocs {
		if len(locs) > 0 {
			b = varint.AppendInt(b, int64(c))
			b = appendInts(b, locs)
		}
	}
	b = appendInts(b, st.freeLocs)

	b = varint.AppendInt(b, tcp.Delta)
	b = varint.AppendInt(b, int64(tcp.TimestampK))
	b = varint.AppendInt(b, tcp.CompletedEpochs)
	b = varint.AppendInt(b, tcp.EligibleDrops)
	b = varint.AppendInt(b, tcp.IneligibleDrops)
	b = varint.AppendLen(b, trackerColors)
	for i := 0; i < trackerColors; i++ {
		c := tr.CheckpointColor(i)
		b = varint.AppendInt(b, int64(c.Color))
		b = varint.AppendInt(b, c.Delay)
		b = varint.AppendInt(b, c.Cnt)
		b = varint.AppendInt(b, c.Deadline)
		b = varint.AppendBool(b, c.Eligible)
		b = varint.AppendBool(b, c.Seen)
		b = varint.AppendLen(b, len(c.Wraps))
		for _, w := range c.Wraps {
			b = varint.AppendInt(b, w)
		}
	}
	return b, nil
}

// RestoreBinary rebuilds a scheduler from an AppendBinary image, with every
// check Restore applies.
func RestoreBinary(data []byte) (*Scheduler, error) {
	cp, err := decodeImage(data)
	if err != nil {
		return nil, err
	}
	return fromImage(cp)
}

// CheckBinary reports whether data parses as a binary image, without
// validating its contents or building a scheduler: the structural check for
// a holder that stores images and never runs them. It reads the fields
// decodeImage reads, in the same order and with the same bounds, so it
// accepts exactly what decodeImage accepts, and it allocates nothing unless
// it refuses.
func CheckBinary(data []byte) error {
	r := varint.NewReader(data)
	// version delta resources round cost.reconfig cost.drop executed
	// dropped pushed_jobs max_scheduled
	r.IntN()
	r.Int()
	r.IntN()
	for i := 0; i < 3; i++ {
		r.Int()
	}
	for i := 0; i < 3; i++ {
		r.IntN()
	}
	r.Int()
	// delays, pending, releases, loc_color
	for n := r.Len(2); n > 0; n-- {
		r.Int32()
		r.Int()
	}
	for n := r.Len(2); n > 0; n-- {
		r.Int32()
		skipJobs(r)
	}
	for n := r.Len(2); n > 0; n-- {
		r.Int()
		skipJobs(r)
	}
	skipColors(r)

	// inner: now, to_outer, subcolors, pending, loc_color, color_locs,
	// free_locs
	r.Int()
	skipColors(r)
	for n := r.Len(3); n > 0; n-- {
		r.Int32()
		r.Int()
		r.Int32()
	}
	for n := r.Len(2); n > 0; n-- {
		r.Int32()
		for k := r.Len(1); k > 0; k-- {
			r.Int()
		}
	}
	skipColors(r)
	for n := r.Len(2); n > 0; n-- {
		r.Int32()
		skipInts(r)
	}
	skipInts(r)

	// tracker: delta timestamp_k completed_epochs eligible_drops
	// ineligible_drops, then its colors
	r.Int()
	r.IntN()
	for i := 0; i < 3; i++ {
		r.Int()
	}
	for n := r.Len(7); n > 0; n-- {
		r.Int32()
		for i := 0; i < 3; i++ {
			r.Int()
		}
		r.Bool()
		r.Bool()
		for k := r.Len(1); k > 0; k-- {
			r.Int()
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("stream: decoding binary checkpoint: %w", err)
	}
	return nil
}

func appendJob(b []byte, j model.Job) []byte {
	b = varint.AppendInt(b, j.ID)
	b = varint.AppendInt(b, int64(j.Color))
	b = varint.AppendInt(b, j.Arrival)
	return varint.AppendInt(b, j.Delay)
}

func appendColors(b []byte, cs []model.Color) []byte {
	b = varint.AppendLen(b, len(cs))
	for _, c := range cs {
		b = varint.AppendInt(b, int64(c))
	}
	return b
}

func appendInts(b []byte, vs []int) []byte {
	b = varint.AppendLen(b, len(vs))
	for _, v := range vs {
		b = varint.AppendInt(b, int64(v))
	}
	return b
}

func skipJobs(r *varint.Reader) {
	for n := r.Len(4); n > 0; n-- {
		r.Int()
		r.Int32()
		r.Int()
		r.Int()
	}
}

func skipColors(r *varint.Reader) {
	for n := r.Len(1); n > 0; n-- {
		r.Int32()
	}
}

func skipInts(r *varint.Reader) {
	for n := r.Len(1); n > 0; n-- {
		r.IntN()
	}
}

// decodeImage parses a binary image into the checkpoint struct. It checks
// structure only — field order, varint well-formedness, counts the input can
// hold, no trailing bytes — and leaves every semantic check to fromImage.
func decodeImage(data []byte) (*checkpoint, error) {
	r := varint.NewReader(data)
	cp := &checkpoint{
		Version:      r.IntN(),
		Delta:        r.Int(),
		Resources:    r.IntN(),
		Round:        r.Int(),
		Cost:         model.Cost{Reconfig: r.Int(), Drop: r.Int()},
		Executed:     r.IntN(),
		Dropped:      r.IntN(),
		PushedJobs:   r.IntN(),
		MaxScheduled: r.Int(),
	}
	if n := r.Len(2); n > 0 {
		cp.Delays = make([]colorDelayCP, n)
		for i := range cp.Delays {
			cp.Delays[i] = colorDelayCP{Color: model.Color(r.Int32()), Delay: r.Int()}
		}
	}
	if n := r.Len(2); n > 0 {
		cp.Pending = make([]outerPendingCP, n)
		for i := range cp.Pending {
			cp.Pending[i] = outerPendingCP{Color: model.Color(r.Int32()), Jobs: readJobs(r)}
		}
	}
	if n := r.Len(2); n > 0 {
		cp.Releases = make([]releaseCP, n)
		for i := range cp.Releases {
			cp.Releases[i] = releaseCP{Round: r.Int(), Jobs: readJobs(r)}
		}
	}
	cp.LocColor = readColors(r)

	in := &cp.Inner
	in.Now = r.Int()
	in.ToOuter = readColors(r)
	if n := r.Len(3); n > 0 {
		in.Subcolors = make([]subcolorCP, n)
		for i := range in.Subcolors {
			in.Subcolors[i] = subcolorCP{Outer: model.Color(r.Int32()), Bucket: r.Int(), Inner: model.Color(r.Int32())}
		}
	}
	if n := r.Len(2); n > 0 {
		in.Pending = make([]innerPendingCP, n)
		for i := range in.Pending {
			p := &in.Pending[i]
			p.Color = model.Color(r.Int32())
			p.Deadlines = make([]int64, r.Len(1))
			for k := range p.Deadlines {
				p.Deadlines[k] = r.Int()
			}
		}
	}
	in.LocColor = readColors(r)
	if n := r.Len(2); n > 0 {
		in.ColorLocs = make([]colorLocsCP, n)
		for i := range in.ColorLocs {
			in.ColorLocs[i] = colorLocsCP{Color: model.Color(r.Int32()), Locs: readInts(r)}
		}
	}
	in.FreeLocs = readInts(r)

	t := &core.TrackerCheckpoint{
		Delta:           r.Int(),
		TimestampK:      r.IntN(),
		CompletedEpochs: r.Int(),
		EligibleDrops:   r.Int(),
		IneligibleDrops: r.Int(),
	}
	if n := r.Len(7); n > 0 {
		t.Colors = make([]core.ColorCheckpoint, n)
		for i := range t.Colors {
			c := &t.Colors[i]
			c.Color = model.Color(r.Int32())
			c.Delay = r.Int()
			c.Cnt = r.Int()
			c.Deadline = r.Int()
			c.Eligible = r.Bool()
			c.Seen = r.Bool()
			if k := r.Len(1); k > 0 {
				c.Wraps = make([]int64, k)
				for j := range c.Wraps {
					c.Wraps[j] = r.Int()
				}
			}
		}
	}
	in.Tracker = t
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("stream: decoding binary checkpoint: %w", err)
	}
	return cp, nil
}

func readJobs(r *varint.Reader) []jobCP {
	jobs := make([]jobCP, r.Len(4))
	for i := range jobs {
		jobs[i] = jobCP{ID: r.Int(), Color: model.Color(r.Int32()), Arrival: r.Int(), Delay: r.Int()}
	}
	return jobs
}

func readColors(r *varint.Reader) []model.Color {
	cs := make([]model.Color, r.Len(1))
	for i := range cs {
		cs[i] = model.Color(r.Int32())
	}
	return cs
}

func readInts(r *varint.Reader) []int {
	vs := make([]int, r.Len(1))
	for i := range vs {
		vs[i] = r.IntN()
	}
	return vs
}
