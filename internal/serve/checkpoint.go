package serve

import (
	"cmp"
	"fmt"
	"slices"

	"rrsched/internal/model"
	"rrsched/internal/stream"
	"rrsched/internal/varint"
)

// A tenant payload is one tenant's state as a binary record: the body of
// every tenant chunk, whether the disk cut, eviction, the hosted push, the
// close handoff or a live reshard's mover cut wrote it. It is header first,
// so every reader checks identity before it parses the state:
//
//	format byte (tenantPayloadFormat)
//	header: round name epoch
//	max-id class
//	delays:   count, then (color delay)*
//	queued:   count, then (id color delay)*
//	stream:   length, then the stream.Scheduler binary image
//
// Integers are zigzag varints, counts and lengths unsigned varints, strings
// length-prefixed. A payload carries no decision history: recorded
// decisions live in the shard's decision log (history.go), so recording
// changes no tenant chunk byte. Nor does it carry a second copy of the
// pushed jobs: the stream image holds each pending job's color, arrival and
// delay, and the scheduler lends the jobs it resolves to the metrics. The
// round travels inside the payload because a clean tenant keeps its old
// chunk while the manifest's round advances: the restored scheduler
// fast-forwards the gap, which is deterministic precisely because a clean
// tenant's skipped rounds are trivial. Earlier formats are refused, not
// read: format 1 carried a decision count in the header and the decisions
// after the stream image, and format 2 an inflight section (id color
// arrival per pending job) before it.
const tenantPayloadFormat byte = 3

// tenantImage is a tenant payload in memory: the scheduler's binary image
// plus the ingest-layer state the stream scheduler does not know about
// (queued-but-unpushed jobs and the ID high-water mark).
type tenantImage struct {
	round int64 // the shard round the payload was cut at
	name  string
	epoch int64
	maxID int64
	// class is the tenant's QoS class; empty means the default class.
	class  string
	delays []colorDelay
	queued []model.Job // Arrival is stamped at push time, so not carried
	stream []byte      // stream.Scheduler binary image
}

type colorDelay struct {
	color model.Color
	delay int64
}

// imageOf captures one tenant at the shard's current round. The image's
// queue aliases the tenant's: it is already in ID order, because admission
// takes only IDs above the tenant's high-water mark.
func (sh *shard) imageOf(tn *tenant) (*tenantImage, error) {
	img, err := tn.sched.AppendBinary(nil)
	if err != nil {
		return nil, fmt.Errorf("serve: checkpointing tenant %q: %w", tn.name, err)
	}
	ti := &tenantImage{
		round:  sh.round,
		name:   tn.name,
		epoch:  tn.epoch,
		maxID:  tn.maxID,
		class:  sh.classField(tn.class),
		queued: tn.queued,
		stream: img,
	}
	ti.delays = make([]colorDelay, 0, len(tn.delays))
	for c, d := range tn.delays {
		ti.delays = append(ti.delays, colorDelay{color: c, delay: d})
	}
	slices.SortFunc(ti.delays, func(a, b colorDelay) int { return cmp.Compare(a.color, b.color) })
	return ti, nil
}

// tenantPayload serializes one tenant as a payload cut at the shard's
// current round.
func (sh *shard) tenantPayload(tn *tenant) ([]byte, error) {
	ti, err := sh.imageOf(tn)
	if err != nil {
		return nil, err
	}
	return ti.append(nil), nil
}

// classField is the class name a payload or manifest carries for class
// index c: empty for the default class.
func (sh *shard) classField(c int) string {
	if c == 0 && sh.classes[c].Name == DefaultClass {
		return ""
	}
	return sh.classes[c].Name
}

// append appends the payload encoding of ti to b.
func (ti *tenantImage) append(b []byte) []byte {
	b = append(b, tenantPayloadFormat)
	b = varint.AppendInt(b, ti.round)
	b = varint.AppendString(b, ti.name)
	b = varint.AppendInt(b, ti.epoch)
	b = varint.AppendInt(b, ti.maxID)
	b = varint.AppendString(b, ti.class)
	b = varint.AppendLen(b, len(ti.delays))
	for _, d := range ti.delays {
		b = varint.AppendInt(b, int64(d.color))
		b = varint.AppendInt(b, d.delay)
	}
	b = varint.AppendLen(b, len(ti.queued))
	for _, j := range ti.queued {
		b = varint.AppendInt(b, j.ID)
		b = varint.AppendInt(b, int64(j.Color))
		b = varint.AppendInt(b, j.Delay)
	}
	return varint.AppendBytes(b, ti.stream)
}

// readTenantPayload is the one decoder of tenant payloads. It reads the
// header and applies the checks every reader shares — the payload holds the
// tenant the caller expects, was cut in [0, maxRound], and has an epoch in
// [0, cut round] — then parses the rest for structure. It validates no state:
// buildTenant does that, and a holder that never builds (the dispatcher's
// fold) checks the stream image's structure with stream.CheckBinary. The
// image's stream field aliases payload.
func readTenantPayload(payload []byte, name string, maxRound int64) (*tenantImage, error) {
	r := varint.NewReader(payload)
	if f := r.Byte(); r.Err() == nil && f != tenantPayloadFormat {
		return nil, fmt.Errorf("serve: tenant %q chunk is not a binary tenant payload (format byte 0x%02x, want 0x%02x)",
			name, f, tenantPayloadFormat)
	}
	ti := &tenantImage{round: r.Int(), name: r.Str(), epoch: r.Int()}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("serve: tenant %q chunk header: %w", name, err)
	}
	switch {
	case ti.name != name:
		return nil, fmt.Errorf("serve: tenant %q chunk holds tenant %q", name, ti.name)
	case ti.round < 0 || ti.round > maxRound:
		return nil, fmt.Errorf("serve: tenant %q chunk round %d outside [0, %d]", name, ti.round, maxRound)
	case ti.epoch < 0 || ti.epoch > ti.round:
		return nil, fmt.Errorf("serve: tenant %q has epoch %d outside [0, %d]", name, ti.epoch, ti.round)
	}
	ti.maxID = r.Int()
	ti.class = r.Str()
	ti.delays = make([]colorDelay, r.Len(2))
	for i := range ti.delays {
		ti.delays[i] = colorDelay{color: model.Color(r.Int32()), delay: r.Int()}
	}
	ti.queued = make([]model.Job, r.Len(3))
	for i := range ti.queued {
		ti.queued[i] = model.Job{ID: r.Int(), Color: model.Color(r.Int32()), Delay: r.Int()}
	}
	ti.stream = r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: tenant %q chunk: %w", name, err)
	}
	return ti, nil
}

// buildTenant reconstructs one tenant from its payload image, validating
// field by field: a corrupted checkpoint is rejected with an error rather
// than resumed into an inconsistent service. The header was checked by
// readTenantPayload.
func (sh *shard) buildTenant(ti *tenantImage) (*tenant, error) {
	class, ok := sh.restoreClass(ti.class)
	if !ok {
		return nil, fmt.Errorf("serve: tenant %q has unknown class %q", ti.name, ti.class)
	}
	sched, err := stream.RestoreBinary(ti.stream)
	if err != nil {
		return nil, fmt.Errorf("serve: restoring tenant %q: %w", ti.name, err)
	}
	tn := &tenant{
		name:       ti.name,
		epoch:      ti.epoch,
		sched:      sched,
		maxID:      ti.maxID,
		delays:     make(map[model.Color]int64, len(ti.delays)),
		class:      class,
		lastActive: ti.round,
	}
	for _, d := range ti.delays {
		if d.color < 0 || d.delay <= 0 || d.delay > MaxDelayBound {
			return nil, fmt.Errorf("serve: tenant %q has invalid delay bound %d for color %d", ti.name, d.delay, d.color)
		}
		if _, dup := tn.delays[d.color]; dup {
			return nil, fmt.Errorf("serve: tenant %q repeats the delay bound of color %d", ti.name, d.color)
		}
		tn.delays[d.color] = d.delay
	}
	for i, q := range ti.queued {
		if q.ID < 0 || q.ID > ti.maxID {
			return nil, fmt.Errorf("serve: tenant %q queued job id %d outside [0, %d]", ti.name, q.ID, ti.maxID)
		}
		if i > 0 && q.ID <= ti.queued[i-1].ID {
			return nil, fmt.Errorf("serve: tenant %q queued job ids do not rise strictly (%d after %d)", ti.name, q.ID, ti.queued[i-1].ID)
		}
		if d, ok := tn.delays[q.Color]; !ok || d != q.Delay {
			return nil, fmt.Errorf("serve: tenant %q queued job %d has unregistered delay %d for color %d", ti.name, q.ID, q.Delay, q.Color)
		}
		tn.queued = append(tn.queued, q)
	}
	return tn, nil
}

// restoreClass maps a checkpointed class name (empty = default) to a class
// index in the shard's table.
func (sh *shard) restoreClass(name string) (int, bool) {
	if name == "" {
		name = DefaultClass
	}
	i, ok := sh.classIdx[name]
	return i, ok
}

// setStateGauges refreshes the level gauges from the shard's rebuilt state.
func (sh *shard) setStateGauges() {
	sh.met.tenants.Set(int64(len(sh.tenants)))
	sh.met.backlog.Set(int64(sh.backlog))
	sh.met.sm.QueueDepth.Set(int64(sh.inflight))
}
