package stream

import (
	"fmt"

	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/varint"
)

// The binary image is the checkpoint image of Snapshot written as varints in
// a fixed field order: the same struct, the same validation on the way back
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
// Snapshot does.
func (s *Scheduler) AppendBinary(b []byte) ([]byte, error) {
	cp, err := s.image()
	if err != nil {
		return b, err
	}
	return appendImage(b, cp), nil
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
// a holder that stores images and never runs them.
func CheckBinary(data []byte) error {
	_, err := decodeImage(data)
	return err
}

func appendImage(b []byte, cp *checkpoint) []byte {
	b = varint.AppendInt(b, int64(cp.Version))
	b = varint.AppendInt(b, cp.Delta)
	b = varint.AppendInt(b, int64(cp.Resources))
	b = varint.AppendInt(b, cp.Round)
	b = varint.AppendInt(b, cp.Cost.Reconfig)
	b = varint.AppendInt(b, cp.Cost.Drop)
	b = varint.AppendInt(b, int64(cp.Executed))
	b = varint.AppendInt(b, int64(cp.Dropped))
	b = varint.AppendInt(b, int64(cp.PushedJobs))
	b = varint.AppendInt(b, cp.MaxScheduled)
	b = varint.AppendLen(b, len(cp.Delays))
	for _, d := range cp.Delays {
		b = varint.AppendInt(b, int64(d.Color))
		b = varint.AppendInt(b, d.Delay)
	}
	b = varint.AppendLen(b, len(cp.Pending))
	for _, p := range cp.Pending {
		b = varint.AppendInt(b, int64(p.Color))
		b = appendJobs(b, p.Jobs)
	}
	b = varint.AppendLen(b, len(cp.Releases))
	for _, r := range cp.Releases {
		b = varint.AppendInt(b, r.Round)
		b = appendJobs(b, r.Jobs)
	}
	b = appendColors(b, cp.LocColor)

	in := &cp.Inner
	b = varint.AppendInt(b, in.Now)
	b = appendColors(b, in.ToOuter)
	b = varint.AppendLen(b, len(in.Subcolors))
	for _, sc := range in.Subcolors {
		b = varint.AppendInt(b, int64(sc.Outer))
		b = varint.AppendInt(b, sc.Bucket)
		b = varint.AppendInt(b, int64(sc.Inner))
	}
	b = varint.AppendLen(b, len(in.Pending))
	for _, p := range in.Pending {
		b = varint.AppendInt(b, int64(p.Color))
		b = varint.AppendLen(b, len(p.Deadlines))
		for _, d := range p.Deadlines {
			b = varint.AppendInt(b, d)
		}
	}
	b = appendColors(b, in.LocColor)
	b = varint.AppendLen(b, len(in.ColorLocs))
	for _, cl := range in.ColorLocs {
		b = varint.AppendInt(b, int64(cl.Color))
		b = appendInts(b, cl.Locs)
	}
	b = appendInts(b, in.FreeLocs)

	t := in.Tracker
	b = varint.AppendInt(b, t.Delta)
	b = varint.AppendInt(b, int64(t.TimestampK))
	b = varint.AppendInt(b, t.CompletedEpochs)
	b = varint.AppendInt(b, t.EligibleDrops)
	b = varint.AppendInt(b, t.IneligibleDrops)
	b = varint.AppendLen(b, len(t.Colors))
	for _, c := range t.Colors {
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
	return b
}

func appendJobs(b []byte, jobs []jobCP) []byte {
	b = varint.AppendLen(b, len(jobs))
	for _, j := range jobs {
		b = varint.AppendInt(b, j.ID)
		b = varint.AppendInt(b, int64(j.Color))
		b = varint.AppendInt(b, j.Arrival)
		b = varint.AppendInt(b, j.Delay)
	}
	return b
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
