// Package dispatch is the fault-tolerant control plane over hosted rrserve
// workers: a dispatcher that owns the tenant→shard placement and hands shards
// to pull-based worker daemons via time-bounded leases, detects missed
// heartbeats, and fails shards over to surviving workers from the checkpoints
// the old holder pushed after every tick.
//
// The determinism contract of the serve layer survives the tier: checkpoints
// are ckptstore bundles carrying full per-shard scheduler state (and, when
// recording, the decision history), lease epochs fence stale writers, and
// clients resend idempotently across a failover — so a tenant's decision
// stream is byte-identical whether its shard lived on one worker throughout
// or was killed and restored mid-run.
package dispatch

import (
	"encoding/json"
	"fmt"

	"rrsched/internal/serve"
)

// WireSchema versions every dispatcher wire message; requests carrying any
// other schema string are rejected so format evolution stays explicit. v2
// carries checkpoints only as bundles: binary push frames, base64 in grants.
const WireSchema = "rrdispatch/v2"

// Wire-format bounds, sized to refuse hostile payloads before they pin
// memory, like the serve wire bounds.
const (
	// MaxWorkerLen caps the worker name length in bytes.
	MaxWorkerLen = 128
	// MaxAddrLen caps a worker's advertised address length.
	MaxAddrLen = 512
	// MaxShards caps the shard count a dispatcher will manage — and with it
	// the leases one heartbeat may claim.
	MaxShards = 4096
)

// ServiceConfig is the scheduling-service shape the dispatcher imposes on
// every worker. Workers do not choose their own: a checkpoint restores only
// under the same shard count and scheduler parameters, so the dispatcher is
// the single source of truth and hands the config out at registration.
type ServiceConfig struct {
	Shards    int   `json:"shards"`
	Resources int   `json:"resources"`
	Delta     int64 `json:"delta"`
	Watermark int   `json:"watermark"`
	// RecordDecisions turns on per-tenant decision recording on every worker:
	// each shard's decision log rides its checkpoint bundles, so histories
	// survive failover. Determinism tests depend on it.
	RecordDecisions bool `json:"record_decisions,omitempty"`
	// Deprecated: bundles are the only checkpoint format; nothing reads this
	// field and it does not travel on the wire.
	CheckpointBundles bool `json:"-"`
}

func (c ServiceConfig) validate() error {
	if c.Shards <= 0 || c.Shards > MaxShards {
		return fmt.Errorf("dispatch: shard count %d out of range (1..%d)", c.Shards, MaxShards)
	}
	if c.Resources <= 0 || c.Resources%4 != 0 {
		return fmt.Errorf("dispatch: resources must be a positive multiple of 4, got %d", c.Resources)
	}
	if c.Delta <= 0 {
		return fmt.Errorf("dispatch: non-positive delta %d", c.Delta)
	}
	if c.Watermark <= 0 {
		return fmt.Errorf("dispatch: non-positive watermark %d", c.Watermark)
	}
	return nil
}

// RegisterRequest is the body of POST /v1/register: a worker announcing
// itself and the address its hosted serve API listens on.
type RegisterRequest struct {
	Schema string `json:"schema"`
	Worker string `json:"worker"`
	Addr   string `json:"addr"`
}

// RegisterResponse tells the worker how to build its hosted service and how
// to stay alive: heartbeat at least every HeartbeatEveryMs, and consider
// itself fenced once HeartbeatEveryMs × MissBudget of wall-clock time passes
// without a successful heartbeat (the dispatcher applies the same deadline to
// declare it dead).
type RegisterResponse struct {
	Schema           string        `json:"schema"`
	Config           ServiceConfig `json:"config"`
	HeartbeatEveryMs int64         `json:"heartbeat_every_ms"`
	MissBudget       int           `json:"miss_budget"`
	// ConfigEpoch versions Config. A fleet reshard bumps it; workers echo it
	// on every heartbeat so the dispatcher can tell who still runs the old
	// shard count.
	ConfigEpoch int64 `json:"config_epoch,omitempty"`
}

// LeaseInfo identifies one held lease in a heartbeat: the shard and the
// epoch under which it was granted.
type LeaseInfo struct {
	Shard int   `json:"shard"`
	Epoch int64 `json:"epoch"`
}

// HeartbeatRequest is the body of POST /v1/heartbeat: liveness plus the
// worker's view of its held leases, so the dispatcher can renew, revoke, or
// grant against ground truth rather than its own bookkeeping alone.
type HeartbeatRequest struct {
	Schema string      `json:"schema"`
	Worker string      `json:"worker"`
	Held   []LeaseInfo `json:"held,omitempty"`
	// ConfigEpoch is the config generation this worker's hosted service was
	// built from. When it trails the dispatcher's, the response carries the
	// fresh config and no grants: the worker must rebuild first.
	ConfigEpoch int64 `json:"config_epoch,omitempty"`
}

// LeaseGrant hands a shard to the heartbeating worker. Checkpoint carries the
// shard's last stored state as a self-contained bundle (base64 in JSON; empty
// means open fresh at round 0); Round echoes the round that checkpoint was
// taken at.
type LeaseGrant struct {
	Shard      int    `json:"shard"`
	Epoch      int64  `json:"epoch"`
	Round      int64  `json:"round"`
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat: new leases granted to this
// worker and shards it must close. A revoked shard is closed gracefully — the
// worker pushes a final checkpoint — unless the worker's epoch is already
// stale, in which case its push is fenced and discarded.
type HeartbeatResponse struct {
	Schema  string       `json:"schema"`
	Grants  []LeaseGrant `json:"grants,omitempty"`
	Revokes []int        `json:"revokes,omitempty"`
	// ConfigEpoch and Config are set when the heartbeating worker's config
	// epoch is stale (a fleet reshard happened): the worker must tear down its
	// hosted service, rebuild it from Config, and only then claim leases. A
	// response carrying Config never carries grants.
	ConfigEpoch int64          `json:"config_epoch,omitempty"`
	Config      *ServiceConfig `json:"config,omitempty"`
}

// CheckpointPush is the body of POST /v1/checkpoint: one shard's checkpoint
// bundle as of Round, pushed by the worker after every tick (and once more,
// with Final set, when closing a revoked shard). It travels only as an
// rrserve/v2 checkpoint frame (serve.ContentTypeBinary), because a bundle is
// not JSON. Epoch fences the push: the dispatcher rejects epochs older than
// the shard's current lease with 409, and a bundle that is malformed or
// contradicts the push (another shard, another shard count, another round)
// with 400.
type CheckpointPush struct {
	Worker string
	Shard  int
	Epoch  int64
	Round  int64
	Final  bool
	Data   []byte
}

// PlacementEntry is one row of the placement table: which worker currently
// holds a shard and where its serve API listens. Worker is empty while the
// shard is unassigned (freshly booted, or mid-failover).
type PlacementEntry struct {
	Shard  int    `json:"shard"`
	Worker string `json:"worker,omitempty"`
	Addr   string `json:"addr,omitempty"`
	Epoch  int64  `json:"epoch"`
	Round  int64  `json:"round"`
}

// PlacementResponse is the body of GET /v1/placement: one entry per shard, in
// shard order. Drivers route each tenant to Addr of the tenant's shard and
// refresh on 421/transport errors.
type PlacementResponse struct {
	Schema string           `json:"schema"`
	Shards []PlacementEntry `json:"shards"`
	// ConfigEpoch is the placement generation: drivers that see it change
	// (or see the shard count change) must rebuild their hash ring before
	// routing another batch.
	ConfigEpoch int64 `json:"config_epoch,omitempty"`
}

// DecodeRegister parses and validates a register request.
func DecodeRegister(data []byte) (*RegisterRequest, error) {
	var req RegisterRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("dispatch: decoding register request: %w", err)
	}
	if err := validateRegister(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeRegister validates and serializes a register request.
func EncodeRegister(req *RegisterRequest) ([]byte, error) {
	if err := validateRegister(req); err != nil {
		return nil, err
	}
	return json.Marshal(req)
}

func validateRegister(req *RegisterRequest) error {
	if req.Schema != WireSchema {
		return fmt.Errorf("dispatch: register schema %q, want %q", req.Schema, WireSchema)
	}
	if err := ValidateWorker(req.Worker); err != nil {
		return err
	}
	if req.Addr == "" {
		return fmt.Errorf("dispatch: register for worker %q has no address", req.Worker)
	}
	if len(req.Addr) > MaxAddrLen {
		return fmt.Errorf("dispatch: worker address of %d bytes, max %d", len(req.Addr), MaxAddrLen)
	}
	for i := 0; i < len(req.Addr); i++ {
		if req.Addr[i] < 0x20 || req.Addr[i] == 0x7f {
			return fmt.Errorf("dispatch: worker address contains control byte 0x%02x", req.Addr[i])
		}
	}
	return nil
}

// DecodeHeartbeat parses and validates a heartbeat request.
func DecodeHeartbeat(data []byte) (*HeartbeatRequest, error) {
	var req HeartbeatRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("dispatch: decoding heartbeat request: %w", err)
	}
	if err := validateHeartbeat(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeHeartbeat validates and serializes a heartbeat request.
func EncodeHeartbeat(req *HeartbeatRequest) ([]byte, error) {
	if err := validateHeartbeat(req); err != nil {
		return nil, err
	}
	return json.Marshal(req)
}

func validateHeartbeat(req *HeartbeatRequest) error {
	if req.Schema != WireSchema {
		return fmt.Errorf("dispatch: heartbeat schema %q, want %q", req.Schema, WireSchema)
	}
	if err := ValidateWorker(req.Worker); err != nil {
		return err
	}
	if req.ConfigEpoch < 0 {
		return fmt.Errorf("dispatch: heartbeat carries negative config epoch %d", req.ConfigEpoch)
	}
	if len(req.Held) > MaxShards {
		return fmt.Errorf("dispatch: heartbeat claims %d leases, max %d", len(req.Held), MaxShards)
	}
	for i, l := range req.Held {
		if l.Shard < 0 || l.Shard >= MaxShards {
			return fmt.Errorf("dispatch: held lease %d names shard %d out of range (0..%d)", i, l.Shard, MaxShards-1)
		}
		if i > 0 && l.Shard <= req.Held[i-1].Shard {
			return fmt.Errorf("dispatch: held leases not strictly increasing by shard (%d after %d)", l.Shard, req.Held[i-1].Shard)
		}
		if l.Epoch < 0 {
			return fmt.Errorf("dispatch: held lease for shard %d has negative epoch %d", l.Shard, l.Epoch)
		}
	}
	return nil
}

// EncodeCheckpointPush validates and serializes a checkpoint push as an
// rrserve/v2 checkpoint frame: the bundle travels as raw bytes in a
// length-prefixed field.
func EncodeCheckpointPush(req *CheckpointPush) ([]byte, error) {
	if err := validateCheckpointPush(req); err != nil {
		return nil, err
	}
	return serve.EncodeCheckpointFrame(&serve.CheckpointFrame{
		Worker: req.Worker,
		Shard:  req.Shard,
		Epoch:  req.Epoch,
		Round:  req.Round,
		Final:  req.Final,
		Data:   req.Data,
	})
}

// DecodeCheckpointPush parses a checkpoint frame and runs the same validation
// as the encoder. It never panics on arbitrary bytes (FuzzDecodeDispatch).
func DecodeCheckpointPush(data []byte) (*CheckpointPush, error) {
	f, err := serve.DecodeCheckpointFrame(data)
	if err != nil {
		return nil, fmt.Errorf("dispatch: decoding checkpoint frame: %w", err)
	}
	req := &CheckpointPush{
		Worker: f.Worker,
		Shard:  f.Shard,
		Epoch:  f.Epoch,
		Round:  f.Round,
		Final:  f.Final,
		// Copy: the frame's Data aliases the request body buffer.
		Data: append([]byte(nil), f.Data...),
	}
	if err := validateCheckpointPush(req); err != nil {
		return nil, err
	}
	return req, nil
}

func validateCheckpointPush(req *CheckpointPush) error {
	if err := ValidateWorker(req.Worker); err != nil {
		return err
	}
	if req.Shard < 0 || req.Shard >= MaxShards {
		return fmt.Errorf("dispatch: checkpoint names shard %d out of range (0..%d)", req.Shard, MaxShards-1)
	}
	if req.Epoch < 0 {
		return fmt.Errorf("dispatch: checkpoint for shard %d has negative epoch %d", req.Shard, req.Epoch)
	}
	if req.Round < 0 {
		return fmt.Errorf("dispatch: checkpoint for shard %d has negative round %d", req.Shard, req.Round)
	}
	if len(req.Data) == 0 {
		return fmt.Errorf("dispatch: checkpoint for shard %d has no data", req.Shard)
	}
	return nil
}

// ValidateWorker checks a worker name: non-empty, bounded, and free of
// control characters (worker names travel in URLs, logs, and state files).
// Mirrors serve.ValidateTenant.
func ValidateWorker(worker string) error {
	if worker == "" {
		return fmt.Errorf("dispatch: empty worker name")
	}
	if len(worker) > MaxWorkerLen {
		return fmt.Errorf("dispatch: worker name of %d bytes, max %d", len(worker), MaxWorkerLen)
	}
	for i := 0; i < len(worker); i++ {
		if worker[i] < 0x20 || worker[i] == 0x7f {
			return fmt.Errorf("dispatch: worker name contains control byte 0x%02x", worker[i])
		}
	}
	return nil
}

// serveConfig expands the wire config into the serve.Config every worker
// runs; the worker makes it hosted by setting OnShardCheckpoint. A hosted
// service that records decisions keeps each shard's decision log in the
// shard's bundle pool and names it in every pushed manifest, so a migrated
// shard does not forget its past.
func (c ServiceConfig) serveConfig() serve.Config {
	return serve.Config{
		Shards:          c.Shards,
		Resources:       c.Resources,
		Delta:           c.Delta,
		Watermark:       c.Watermark,
		RecordDecisions: c.RecordDecisions,
	}
}
