package stream

import "rrsched/internal/varint"

// appendImage writes a checkpoint struct in the binary layout. It is the
// oracle AppendBinary is held to: encoding the struct Snapshot builds must
// give the bytes AppendBinary writes straight from the scheduler. Tests also
// use it to encode doctored images.
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
		b = appendJobCPs(b, p.Jobs)
	}
	b = varint.AppendLen(b, len(cp.Releases))
	for _, r := range cp.Releases {
		b = varint.AppendInt(b, r.Round)
		b = appendJobCPs(b, r.Jobs)
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

func appendJobCPs(b []byte, jobs []jobCP) []byte {
	b = varint.AppendLen(b, len(jobs))
	for _, j := range jobs {
		b = varint.AppendInt(b, j.ID)
		b = varint.AppendInt(b, int64(j.Color))
		b = varint.AppendInt(b, j.Arrival)
		b = varint.AppendInt(b, j.Delay)
	}
	return b
}
