// Package serve is the network scheduling service over the stream scheduler:
// a shard pool of per-tenant stream.Scheduler instances keyed by consistent
// hashing of the tenant ID, an HTTP ingest layer with watermark-based
// admission control, a round ticker (real-time or virtual), and graceful
// drain to per-shard checkpoints that restore decision-identically.
//
// The design constraint throughout is that the ingest layer must never
// perturb scheduling: each shard owns a single goroutine that serializes
// submissions and round advancement, tenants are visited in sorted order,
// and a tenant's queued jobs are pushed sorted by ID — so the per-tenant
// decision stream is byte-identical to feeding the same arrivals to a bare
// stream.Scheduler sequentially.
package serve

import (
	"encoding/json"
	"fmt"
)

// WireSchema versions the submit wire format; requests carrying any other
// schema string are rejected so format evolution stays explicit.
const WireSchema = "rrserve/v1"

// Wire-format bounds. They exist to keep a single malformed or hostile
// request from pinning memory: the decoder rejects anything beyond them
// before the batch reaches a shard.
const (
	// MaxBatchJobs caps the jobs in one submit request.
	MaxBatchJobs = 65536
	// MaxTenantLen caps the tenant ID length in bytes.
	MaxTenantLen = 256
	// MaxDelayBound caps a job's delay bound. Far beyond any real workload,
	// but small enough that arrival+delay arithmetic can never overflow.
	MaxDelayBound = int64(1) << 32
	// MaxClassLen caps a tenant-class name length in bytes.
	MaxClassLen = 64
	// MaxShards caps the shard count a service (or a reshard request) may
	// name, matching the dispatch tier's placement bound.
	MaxShards = 4096
)

// SubmitJob is one job on the wire. The service assigns the arrival round
// (jobs arrive "now" — they are scheduled at the shard's next round tick),
// so the wire job carries only identity, color, and delay bound.
type SubmitJob struct {
	// ID identifies the job within its tenant. IDs must be strictly
	// increasing across a tenant's lifetime (and therefore within a batch);
	// the shard rejects anything at or below the highest ID it has accepted,
	// which makes duplicate-suppression O(1) instead of O(history).
	ID int64 `json:"id"`
	// Color is the job's color (category); non-negative.
	Color int32 `json:"color"`
	// Delay is the delay bound D_ℓ of the job's color. All jobs of one color
	// must carry the same bound, within a batch and across the tenant's life.
	Delay int64 `json:"delay"`
}

// SubmitRequest is the body of POST /v1/jobs: one batch of jobs for one
// tenant. Batches are admitted all-or-nothing, so a 429 never leaves a batch
// half-queued.
type SubmitRequest struct {
	Schema string      `json:"schema"`
	Tenant string      `json:"tenant"`
	Jobs   []SubmitJob `json:"jobs"`
	// Class optionally names the tenant's QoS class. Empty selects the
	// tenant's bound class (or the "default" class for a new tenant); a
	// non-empty class must match the configured class the tenant is bound to.
	Class string `json:"class,omitempty"`
	// Epoch optionally asserts the placement epoch the sender routed under.
	// Zero means "no assertion". A non-zero epoch that does not match the
	// service's current placement epoch is answered with a typed 409
	// (ErrCodeEpochSkew) carrying the current epoch as a retry hint.
	Epoch int64 `json:"epoch,omitempty"`
}

// SubmitResponse is the body of a successful submit.
type SubmitResponse struct {
	Schema string `json:"schema"`
	// Accepted is the number of jobs queued (always len(Jobs): admission is
	// all-or-nothing).
	Accepted int `json:"accepted"`
	// Round is the global round at which the batch will be pushed into the
	// tenant's scheduler (the shard's next tick).
	Round int64 `json:"round"`
	// Backlog is the shard's queued-job count after this batch.
	Backlog int `json:"backlog"`
	// Epoch is the placement epoch the batch was admitted under. Zero (and
	// omitted) until the first reshard bumps the epoch.
	Epoch int64 `json:"epoch,omitempty"`
}

// RoundRequest is the body of POST /v1/round, a hosted shard's whole round in
// one call (Service.TickShard). Shards is the shard count the sender
// partitioned the batches under. In binary frames every batch is a submit
// frame; in JSON, a submit request with its own schema string.
type RoundRequest struct {
	Schema  string          `json:"schema"`
	Shard   int             `json:"shard"`
	Shards  int             `json:"shards"`
	Target  int64           `json:"target"`
	Batches []SubmitRequest `json:"batches,omitempty"`
}

// DecodeRound parses and validates a JSON round request.
func DecodeRound(data []byte) (*RoundRequest, error) {
	var req RoundRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("serve: decoding round request: %w", err)
	}
	if err := validateRound(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeRound validates and serializes a round request as JSON.
func EncodeRound(req *RoundRequest) ([]byte, error) {
	if err := validateRound(req); err != nil {
		return nil, err
	}
	return json.Marshal(req)
}

// validateRound enforces the JSON codec's invariants: v1 schemas, valid batches.
func validateRound(req *RoundRequest) error {
	if req.Schema != WireSchema {
		return fmt.Errorf("serve: round schema %q, want %q", req.Schema, WireSchema)
	}
	for i := range req.Batches {
		if err := validateSubmit(&req.Batches[i]); err != nil {
			return fmt.Errorf("serve: round batch %d: %w", i, err)
		}
	}
	return validateRoundMeta(req)
}

// validateRoundMeta enforces the round call's own fields, shared by both
// codecs: a shard inside a bounded shard count, a non-negative target, and
// batches without routing metadata — the shard count is the call's routing
// assertion, and a tenant's class binds through /v1/jobs.
func validateRoundMeta(req *RoundRequest) error {
	if req.Shards < 1 || req.Shards > MaxShards || req.Shard < 0 || req.Shard >= req.Shards || req.Target < 0 {
		return fmt.Errorf("serve: round names shard %d of %d at target %d (want shard in [0, shards), shards in [1, %d], target >= 0)",
			req.Shard, req.Shards, req.Target, MaxShards)
	}
	for i, b := range req.Batches {
		if b.Class != "" || b.Epoch != 0 {
			return fmt.Errorf("serve: round batch %d names class %q and epoch %d; round batches carry neither", i, b.Class, b.Epoch)
		}
	}
	return nil
}

// ErrCodeEpochSkew is the machine-readable code on a 409 produced by a
// submit that asserted a placement epoch other than the service's current
// one. The response's Epoch field carries the current epoch so the client
// can adopt it and retry without a stats round trip.
const ErrCodeEpochSkew = "epoch_skew"

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a machine-readable error class for responses a client is
	// expected to react to programmatically (currently only epoch_skew);
	// empty for plain errors.
	Code string `json:"code,omitempty"`
	// Epoch carries the service's current placement epoch on epoch_skew
	// responses.
	Epoch int64 `json:"epoch,omitempty"`
}

// DecodeSubmit parses and validates a submit request. It never panics on
// arbitrary bytes, and any request it accepts re-encodes (EncodeSubmit) to an
// equivalent batch — the round-trip property FuzzDecodeSubmit pins.
func DecodeSubmit(data []byte) (*SubmitRequest, error) {
	var req SubmitRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("serve: decoding submit request: %w", err)
	}
	if err := validateSubmit(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeSubmit validates and serializes a submit request.
func EncodeSubmit(req *SubmitRequest) ([]byte, error) {
	if err := validateSubmit(req); err != nil {
		return nil, err
	}
	return json.Marshal(req)
}

// validateSubmit enforces the JSON codec's wire invariants: the v1 schema
// string plus the codec-independent body invariants of validateSubmitBody.
func validateSubmit(req *SubmitRequest) error {
	if req.Schema != WireSchema {
		return fmt.Errorf("serve: submit schema %q, want %q", req.Schema, WireSchema)
	}
	if err := validateSubmitMeta(req.Class, req.Epoch); err != nil {
		return err
	}
	var ck delayChecker
	return validateSubmitBody(req.Tenant, req.Jobs, &ck)
}

// validateSubmitMeta enforces the invariants of the optional routing
// metadata shared by the JSON and binary submit codecs: class-name shape and
// a non-negative epoch assertion.
func validateSubmitMeta(class string, epoch int64) error {
	if class != "" {
		if err := ValidateClass(class); err != nil {
			return err
		}
	}
	if epoch < 0 {
		return fmt.Errorf("serve: negative epoch assertion %d", epoch)
	}
	return nil
}

// validateSubmitBody enforces the invariants shared by every submit codec —
// JSON and binary, encode and decode: tenant shape, batch bounds, per-job
// field ranges, strictly increasing IDs, and per-color delay-bound
// consistency within the batch. The caller supplies the delayChecker so the
// scratch state lives on its stack (the binary decode path must not allocate).
func validateSubmitBody(tenant string, jobs []SubmitJob, ck *delayChecker) error {
	if err := ValidateTenant(tenant); err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("serve: submit batch for tenant %q has no jobs", tenant)
	}
	if len(jobs) > MaxBatchJobs {
		return fmt.Errorf("serve: submit batch has %d jobs, max %d", len(jobs), MaxBatchJobs)
	}
	for i := range jobs {
		j := &jobs[i]
		if j.ID < 0 {
			return fmt.Errorf("serve: job %d has negative id", j.ID)
		}
		if i > 0 && j.ID <= jobs[i-1].ID {
			return fmt.Errorf("serve: batch ids not strictly increasing (%d after %d)", j.ID, jobs[i-1].ID)
		}
		if j.Color < 0 {
			return fmt.Errorf("serve: job %d has negative color %d", j.ID, j.Color)
		}
		if j.Delay <= 0 || j.Delay > MaxDelayBound {
			return fmt.Errorf("serve: job %d has delay bound %d out of range (1..%d)", j.ID, j.Delay, MaxDelayBound)
		}
		if d, seen := ck.register(j.Color, j.Delay); seen && d != j.Delay {
			return fmt.Errorf("serve: batch gives color %d delay bounds %d and %d", j.Color, d, j.Delay)
		}
	}
	return nil
}

// delayCheckerSlots sizes the delayChecker's inline open-addressed table.
// 256 slots at a 3/4 load factor cover batches with up to 192 distinct
// colors without touching the heap.
const delayCheckerSlots = 256

// delayChecker verifies per-color delay-bound consistency within one batch.
// It replaces a per-call map: a fixed-size open-addressed table lives on the
// caller's stack, and only a batch with more distinct colors than the table
// holds spills to an allocated map — so the steady-state decode path stays
// allocation-free.
type delayChecker struct {
	n     int
	keys  [delayCheckerSlots]int64 // color+1; 0 marks an empty slot
	vals  [delayCheckerSlots]int64
	spill map[int32]int64
}

// register records color→delay on first sight; for a color seen before it
// returns the registered bound and true (without overwriting).
func (c *delayChecker) register(color int32, delay int64) (int64, bool) {
	if c.spill != nil {
		prev, seen := c.spill[color]
		if !seen {
			c.spill[color] = delay
		}
		return prev, seen
	}
	key := int64(color) + 1
	// Fibonacci hashing on the color's low 32 bits; linear probing.
	i := int((uint32(color) * 2654435761) >> 24)
	for {
		switch c.keys[i] {
		case key:
			return c.vals[i], true
		case 0:
			if c.n >= delayCheckerSlots*3/4 {
				// Table crowded: migrate to a map and continue there. Rare
				// (>192 distinct colors in one batch) and amortized over a
				// batch at least that long.
				c.spill = make(map[int32]int64, 2*delayCheckerSlots)
				for j, k := range c.keys {
					if k != 0 {
						c.spill[int32(k-1)] = c.vals[j]
					}
				}
				c.spill[color] = delay
				return 0, false
			}
			c.keys[i] = key
			c.vals[i] = delay
			c.n++
			return 0, false
		}
		i++
		if i == delayCheckerSlots {
			i = 0
		}
	}
}

// ValidateTenant checks a tenant ID: non-empty, bounded, and free of control
// characters (tenant IDs travel in URLs, logs, and checkpoint files).
func ValidateTenant(tenant string) error {
	return validateTenantBytes(tenant)
}

// ValidateClass checks a tenant-class name: non-empty, bounded by
// MaxClassLen, and free of control characters (class names travel on the
// wire, in metric labels, and in checkpoint files).
func ValidateClass(class string) error {
	if len(class) == 0 {
		return fmt.Errorf("serve: empty class name")
	}
	if len(class) > MaxClassLen {
		return fmt.Errorf("serve: class name of %d bytes, max %d", len(class), MaxClassLen)
	}
	for i := 0; i < len(class); i++ {
		if class[i] < 0x20 || class[i] == 0x7f {
			return fmt.Errorf("serve: class name contains control byte 0x%02x", class[i])
		}
	}
	return nil
}

// validateTenantBytes is ValidateTenant over either string or []byte, so the
// binary decoder can validate in place without converting (and allocating).
func validateTenantBytes[T string | []byte](tenant T) error {
	if len(tenant) == 0 {
		return fmt.Errorf("serve: empty tenant id")
	}
	if len(tenant) > MaxTenantLen {
		return fmt.Errorf("serve: tenant id of %d bytes, max %d", len(tenant), MaxTenantLen)
	}
	for i := 0; i < len(tenant); i++ {
		if tenant[i] < 0x20 || tenant[i] == 0x7f {
			return fmt.Errorf("serve: tenant id contains control byte 0x%02x", tenant[i])
		}
	}
	return nil
}
