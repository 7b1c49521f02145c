package serve

import (
	"encoding/json"
	"fmt"
	"sort"

	"rrsched/internal/model"
	"rrsched/internal/stream"
)

// tenantCheckpoint is the JSON image of one tenant: the embedded stream
// checkpoint plus the ingest-layer state the stream scheduler does not know
// about (queued-but-unpushed jobs, the ID high-water mark, and the inflight
// metadata the metrics layer needs). It is the payload of a tenant's state
// chunk and of a reshard migration frame.
type tenantCheckpoint struct {
	Name  string `json:"name"`
	Epoch int64  `json:"epoch"`
	MaxID int64  `json:"max_id"`
	// Class is the tenant's QoS class; empty means the default class, so
	// pre-class checkpoints restore into the default class unchanged.
	Class string `json:"class,omitempty"`

	Delays   []colorDelay    `json:"delays,omitempty"`
	Queued   []queuedJob     `json:"queued,omitempty"`
	Inflight []inflightJob   `json:"inflight,omitempty"`
	Snapshot json.RawMessage `json:"snapshot"`
	// Decisions is the tenant's recorded decision stream, present only in
	// hosted services that record decisions (Config.embedsDecisions): the
	// dispatcher/worker tier embeds history in checkpoints so it survives a
	// shard migration, whereas classic services keep it in memory or in the
	// decision log. Classic reshard frames carry it too.
	Decisions []stream.Decision `json:"decisions,omitempty"`

	// Reshard migration extensions. A frame carrying Chunk ships a reference
	// into the shared chunk store instead of embedded state: Evicted marks a
	// cold stub (no resident state at all), otherwise the target resolves the
	// chunk into a resident tenant. LogDecisions carries the tenant's
	// streaming-log records so its /v1/decisions history survives the move.
	Evicted      bool          `json:"evicted,omitempty"`
	Chunk        string        `json:"chunk,omitempty"`
	Chain        int           `json:"chain,omitempty"`
	LogDecisions []logDecision `json:"log_decisions,omitempty"`
}

// logDecision is one streaming-log record riding a migration frame: the
// global round it was appended at and the serialized stream.Decision.
type logDecision struct {
	Round    int64           `json:"round"`
	Decision json.RawMessage `json:"decision"`
}

type colorDelay struct {
	Color int32 `json:"color"`
	Delay int64 `json:"delay"`
}

type queuedJob struct {
	ID    int64 `json:"id"`
	Color int32 `json:"color"`
	Delay int64 `json:"delay"`
}

type inflightJob struct {
	ID      int64 `json:"id"`
	Color   int32 `json:"color"`
	Arrival int64 `json:"arrival"`
}

// checkpointTenant serializes one tenant. Shared by tenant state chunks and
// the reshard migration path, which ships single tenants between shards.
func (sh *shard) checkpointTenant(tn *tenant, decisions bool) (tenantCheckpoint, error) {
	snap, err := tn.sched.Snapshot()
	if err != nil {
		return tenantCheckpoint{}, fmt.Errorf("serve: checkpointing tenant %q: %w", tn.name, err)
	}
	tcp := tenantCheckpoint{
		Name:     tn.name,
		Epoch:    tn.epoch,
		MaxID:    tn.maxID,
		Snapshot: snap,
	}
	if tn.class != 0 || sh.classes[tn.class].Name != DefaultClass {
		tcp.Class = sh.classes[tn.class].Name
	}
	for c, d := range tn.delays {
		tcp.Delays = append(tcp.Delays, colorDelay{Color: int32(c), Delay: d})
	}
	sort.Slice(tcp.Delays, func(i, j int) bool { return tcp.Delays[i].Color < tcp.Delays[j].Color })
	for _, j := range tn.queued {
		tcp.Queued = append(tcp.Queued, queuedJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay})
	}
	sort.Slice(tcp.Queued, func(i, j int) bool { return tcp.Queued[i].ID < tcp.Queued[j].ID })
	for id, meta := range tn.inflight {
		tcp.Inflight = append(tcp.Inflight, inflightJob{ID: id, Color: int32(meta.Color), Arrival: meta.Arrival})
	}
	sort.Slice(tcp.Inflight, func(i, j int) bool { return tcp.Inflight[i].ID < tcp.Inflight[j].ID })
	if decisions {
		tcp.Decisions = tn.decisions
	}
	return tcp, nil
}

// buildTenant reconstructs one tenant from its checkpoint image, validating
// field by field: a corrupted checkpoint is rejected with an error rather
// than resumed into an inconsistent service. round is the round the image was
// cut at (the bound on tenant epochs and decision history).
func (sh *shard) buildTenant(tcp *tenantCheckpoint, round int64) (*tenant, error) {
	if tcp.Epoch < 0 || tcp.Epoch > round {
		return nil, fmt.Errorf("serve: tenant %q has epoch %d outside [0, %d]", tcp.Name, tcp.Epoch, round)
	}
	class, ok := sh.restoreClass(tcp.Class)
	if !ok {
		return nil, fmt.Errorf("serve: tenant %q has unknown class %q", tcp.Name, tcp.Class)
	}
	sched, err := stream.Restore(tcp.Snapshot)
	if err != nil {
		return nil, fmt.Errorf("serve: restoring tenant %q: %w", tcp.Name, err)
	}
	tn := &tenant{
		name:       tcp.Name,
		epoch:      tcp.Epoch,
		sched:      sched,
		maxID:      tcp.MaxID,
		delays:     make(map[model.Color]int64, len(tcp.Delays)),
		inflight:   make(map[int64]jobMeta, len(tcp.Inflight)),
		class:      class,
		lastActive: round,
	}
	for _, d := range tcp.Delays {
		if d.Color < 0 || d.Delay <= 0 || d.Delay > MaxDelayBound {
			return nil, fmt.Errorf("serve: tenant %q has invalid delay bound %d for color %d", tcp.Name, d.Delay, d.Color)
		}
		tn.delays[model.Color(d.Color)] = d.Delay
	}
	for _, q := range tcp.Queued {
		if q.ID < 0 || q.ID > tcp.MaxID {
			return nil, fmt.Errorf("serve: tenant %q queued job id %d outside [0, %d]", tcp.Name, q.ID, tcp.MaxID)
		}
		d, ok := tn.delays[model.Color(q.Color)]
		if !ok || d != q.Delay {
			return nil, fmt.Errorf("serve: tenant %q queued job %d has unregistered delay %d for color %d", tcp.Name, q.ID, q.Delay, q.Color)
		}
		tn.queued = append(tn.queued, model.Job{ID: q.ID, Color: model.Color(q.Color), Delay: q.Delay})
	}
	for _, f := range tcp.Inflight {
		if _, dup := tn.inflight[f.ID]; dup {
			return nil, fmt.Errorf("serve: tenant %q repeats inflight job %d", tcp.Name, f.ID)
		}
		if f.Color < 0 {
			return nil, fmt.Errorf("serve: tenant %q inflight job %d has negative color", tcp.Name, f.ID)
		}
		tn.inflight[f.ID] = jobMeta{Color: model.Color(f.Color), Arrival: f.Arrival}
	}
	if len(tcp.Decisions) > 0 {
		// A decision-bearing checkpoint carries the tenant's full history:
		// one decision per local round since its epoch.
		if int64(len(tcp.Decisions)) != round-tcp.Epoch {
			return nil, fmt.Errorf("serve: tenant %q checkpoint has %d decisions, want %d (rounds %d..%d)",
				tcp.Name, len(tcp.Decisions), round-tcp.Epoch, tcp.Epoch, round)
		}
		tn.decisions = tcp.Decisions
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

// adoptTenant installs a reconstructed tenant into the shard's state. The
// caller is responsible for keeping sh.order sorted (restoreManifest and the
// reshard inject path sort once at the end) and for refreshing the gauges
// via setStateGauges.
func (sh *shard) adoptTenant(tn *tenant) {
	sh.tenants[tn.name] = tn
	sh.order = append(sh.order, tn.name)
	sh.backlog += len(tn.queued)
	sh.classBacklog[tn.class] += len(tn.queued)
	sh.inflight += len(tn.inflight)
}

// setStateGauges refreshes the level gauges from the shard's rebuilt state.
func (sh *shard) setStateGauges() {
	sh.met.tenants.Set(int64(len(sh.tenants)))
	sh.met.backlog.Set(int64(sh.backlog))
	sh.met.sm.QueueDepth.Set(int64(sh.inflight))
}
