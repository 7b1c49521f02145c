package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"rrsched/internal/ckptstore"
	"rrsched/internal/obs"
)

// ReshardSchema versions the reshard request/response wire format.
const ReshardSchema = "rrserve-reshard/v1"

// ReshardRequest is the body of POST /v1/reshard: resize the pool to Shards
// under live traffic.
type ReshardRequest struct {
	Schema string `json:"schema"`
	Shards int    `json:"shards"`
}

// ReshardResponse describes a completed reshard.
type ReshardResponse struct {
	Schema string `json:"schema"`
	// From and Shards are the shard counts before and after.
	From   int `json:"from"`
	Shards int `json:"shards"`
	// Epoch is the new placement epoch; clients asserting the old epoch get
	// a typed 409 until they adopt it.
	Epoch int64 `json:"epoch"`
	// Round is the round boundary the migration happened at.
	Round int64 `json:"round"`
	// Moved is the number of tenants migrated shard-to-shard, and
	// MigratedBytes the total size of their checkpoint frames.
	Moved         int   `json:"moved_tenants"`
	MigratedBytes int64 `json:"migrated_bytes"`
	DurationNs    int64 `json:"duration_ns"`
}

// DecodeReshard parses and validates a reshard request. Never panics on
// arbitrary bytes; anything it accepts re-encodes (EncodeReshard) to the
// same request — the fixed point FuzzDecodeReshard pins.
func DecodeReshard(data []byte) (*ReshardRequest, error) {
	var req ReshardRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("serve: decoding reshard request: %w", err)
	}
	if err := validateReshard(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// EncodeReshard validates and serializes a reshard request.
func EncodeReshard(req *ReshardRequest) ([]byte, error) {
	if err := validateReshard(req); err != nil {
		return nil, err
	}
	return json.Marshal(req)
}

func validateReshard(req *ReshardRequest) error {
	if req.Schema != ReshardSchema {
		return fmt.Errorf("serve: reshard schema %q, want %q", req.Schema, ReshardSchema)
	}
	if req.Shards < 1 || req.Shards > MaxShards {
		return fmt.Errorf("serve: reshard to %d shards out of range (1..%d)", req.Shards, MaxShards)
	}
	return nil
}

// ErrReshardBudget marks a reshard refused because its migration plan
// exceeds some class's slice of Config.ReshardBudget. The pool is left
// exactly as it was.
var ErrReshardBudget = errors.New("serve: reshard migration exceeds class budget")

// reshardWorker is the Worker field on migration checkpoint frames; it
// identifies in-process reshard traffic in the frame format shared with the
// dispatcher tier.
const reshardWorker = "reshard"

// Reshard resizes the pool to newShards under live traffic. The sequence:
// park new submissions behind the gate, fence every shard onto the new
// epoch (in-flight submissions bounce and re-park), checkpoint the tenants
// the new ring routes elsewhere into binary checkpoint frames, restore them
// on their target shards, then atomically flip routing by swapping the
// placement and releasing the gate. Parked submissions replay under the new
// epoch; decision streams are untouched because all migration happens at a
// round boundary (tickMu is held throughout).
//
// Classic services only — hosted pools reshard through the dispatcher,
// which owns their placement.
func (s *Service) Reshard(newShards int) (*ReshardResponse, error) {
	if s.cfg.Hosted {
		return nil, fmt.Errorf("serve: hosted services reshard via the dispatcher")
	}
	if newShards < 1 || newShards > MaxShards {
		return nil, fmt.Errorf("serve: reshard to %d shards out of range (1..%d)", newShards, MaxShards)
	}
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	if s.draining.Load() {
		return nil, fmt.Errorf("serve: service is draining")
	}
	t0 := obs.Now()

	// Park: submissions arriving from here on wait for the flip.
	gate := make(chan struct{})
	s.gate.Store(&gate)
	released := false
	release := func() {
		if !released {
			released = true
			s.gate.Store(nil)
			close(gate)
		}
	}
	defer release()

	// Hold the round barrier: the whole migration happens between rounds.
	s.tickMu.Lock()
	defer s.tickMu.Unlock()

	old := s.pl.Load()
	if newShards == len(old.shards) {
		return nil, fmt.Errorf("serve: service already has %d shards", newShards)
	}
	newEpoch := old.epoch + 1
	round := s.round.Load()

	// Build the grown shards first: no side effects yet, so failure needs no
	// rollback.
	surviving := len(old.shards)
	if newShards < surviving {
		surviving = newShards
	}
	shards := make([]*shard, newShards)
	copy(shards, old.shards[:surviving])
	for i := surviving; i < newShards; i++ {
		sh, err := newShard(i, s.cfg)
		if err != nil {
			return nil, err
		}
		sh.epoch = newEpoch
		sh.nshards = newShards
		sh.round = round
		sh.store = s.store
		if s.cfg.logMode() {
			// A grown shard's log dir may hold stale segments from a previous
			// incarnation at a higher shard count; start it clean.
			dir := shardDecLogDir(s.cfg.StateDir, i)
			if err := os.RemoveAll(dir); err != nil {
				return nil, fmt.Errorf("serve: clearing decision log of grown shard %d: %w", i, err)
			}
			l, err := ckptstore.OpenDecLog(dir, 0)
			if err != nil {
				return nil, err
			}
			sh.declog = l
		}
		shards[i] = sh
	}

	// Phase 1: fence. Every old shard adopts the new epoch; submissions
	// routed under the old placement bounce back to the handler, which parks
	// on the gate.
	s.fenceShards(old.shards, newEpoch, newShards)
	rollback := func() { s.fenceShards(old.shards, old.epoch, len(old.shards)) }

	// Phase 2: plan. Each shard serializes the tenants the new ring routes
	// elsewhere into checkpoint frames.
	ring := newHashRing(newShards)
	moves, err := s.planMoves(old.shards, ring, newShards, newEpoch)
	if err != nil {
		rollback()
		return nil, err
	}
	if err := s.checkReshardBudget(moves); err != nil {
		rollback()
		return nil, err
	}

	// Phase 3: commit. Restore movers on their targets, then drop them from
	// their sources. Inject-before-remove: until removal, a mover's state
	// exists on both shards, but only the target is reachable after the flip
	// and only the source before a rollback.
	moved, bytes := 0, int64(0)
	byTarget := make([][]migrationFrame, newShards)
	for _, frames := range moves {
		for _, mf := range frames {
			byTarget[mf.target] = append(byTarget[mf.target], mf)
			moved++
			bytes += int64(len(mf.data))
		}
	}
	for target, frames := range byTarget {
		if len(frames) == 0 {
			continue
		}
		if err := s.injectMoves(shards[target], target >= surviving, frames); err != nil {
			// Unreachable in practice (the frames were built two phases ago);
			// unwind the partial injections and re-fence the old epoch.
			for t := 0; t <= target; t++ {
				if len(byTarget[t]) > 0 {
					s.removeMoved(shards[t], t >= surviving, byTarget[t])
				}
			}
			rollback()
			return nil, err
		}
	}
	for i, frames := range moves {
		if len(frames) > 0 {
			s.removeMoved(old.shards[i], false, frames)
		}
	}

	// Start the grown shards and flip routing.
	for i := surviving; i < newShards; i++ {
		shards[i].start()
	}
	retired := append([]*shard{}, old.retired...)
	if newShards < len(old.shards) {
		// Merged-away shards keep running: a handler that routed just before
		// the flip may still send them a command, which bounces off the epoch
		// fence. They hold no tenants and are never ticked again.
		retired = append(retired, old.shards[newShards:]...)
	}
	s.pl.Store(&placement{epoch: newEpoch, ring: ring, shards: shards, retired: retired})
	release()

	dur := obs.Now() - t0
	s.met.reshards.Inc()
	s.met.reshardTenants.Add(int64(moved))
	s.met.reshardBytes.Add(bytes)
	s.met.reshardNs.Observe(dur)
	return &ReshardResponse{
		Schema:        ReshardSchema,
		From:          len(old.shards),
		Shards:        newShards,
		Epoch:         newEpoch,
		Round:         round,
		Moved:         moved,
		MigratedBytes: bytes,
		DurationNs:    dur,
	}, nil
}

// fenceShards synchronously installs a placement epoch on every shard.
func (s *Service) fenceShards(shards []*shard, epoch int64, nshards int) {
	replies := make([]chan struct{}, len(shards))
	for i, sh := range shards {
		replies[i] = make(chan struct{}, 1)
		sh.ch <- shardCmd{place: &placeCmd{epoch: epoch, nshards: nshards, reply: replies[i]}}
	}
	for _, r := range replies {
		<-r
	}
}

// planMoves collects every shard's migration frames: the tenants the target
// ring routes off the shard, serialized but not yet removed.
func (s *Service) planMoves(shards []*shard, ring hashRing, nshards int, newEpoch int64) ([][]migrationFrame, error) {
	replies := make([]chan planResult, len(shards))
	for i, sh := range shards {
		replies[i] = make(chan planResult, 1)
		sh.ch <- shardCmd{plan: &planCmd{ring: ring, nshards: nshards, newEpoch: newEpoch, reply: replies[i]}}
	}
	out := make([][]migrationFrame, len(shards))
	var firstErr error
	for i, r := range replies {
		res := <-r
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		out[i] = res.frames
	}
	return out, firstErr
}

// checkReshardBudget enforces Config.ReshardBudget split across classes by
// weight: every class's migrated bytes must fit its slice.
func (s *Service) checkReshardBudget(moves [][]migrationFrame) error {
	budget := s.cfg.ReshardBudget
	if budget == 0 {
		return nil
	}
	classes := normalizeClasses(s.cfg.Classes)
	var sum int64
	for _, c := range classes {
		sum += c.Weight
	}
	byClass := map[string]int64{}
	for _, frames := range moves {
		for _, mf := range frames {
			byClass[mf.class] += int64(len(mf.data))
		}
	}
	for _, c := range classes {
		slice := budget * c.Weight / sum
		if used := byClass[c.Name]; used > slice {
			return fmt.Errorf("%w: class %q needs %d bytes of its %d-byte slice (budget %d)",
				ErrReshardBudget, c.Name, used, slice, budget)
		}
	}
	return nil
}

// injectMoves restores migration frames on their target shard. A running
// shard adopts them on its own goroutine; a freshly built one (not started
// yet) is written directly.
func (s *Service) injectMoves(sh *shard, fresh bool, frames []migrationFrame) error {
	if fresh {
		return sh.adoptFrames(frames)
	}
	reply := make(chan error, 1)
	sh.ch <- shardCmd{inject: &injectCmd{frames: frames, reply: reply}}
	return <-reply
}

// removeMoved drops migrated tenants from a shard.
func (s *Service) removeMoved(sh *shard, fresh bool, frames []migrationFrame) {
	names := make([]string, len(frames))
	for i, mf := range frames {
		names[i] = mf.tenant
	}
	if fresh {
		sh.handleRemove(names)
		return
	}
	reply := make(chan struct{}, 1)
	sh.ch <- shardCmd{remove: &removeCmd{tenants: names, reply: reply}}
	<-reply
}

// handlePlan serializes every tenant the target ring routes off this shard
// into a migration frame: a migrationRecord carrying the tenant's payload,
// wrapped in a binary checkpoint frame addressed to its new shard. Recorded
// decision streams travel with the tenant whenever recording is on (in log
// mode as streaming records riding the frame), so /v1/decisions is seamless
// across the move.
// Clean chunk-backed residents and evicted stubs move as tiny chunk
// references — the chunk store is shared across shards, so only the dirty
// state pays serialization (and only it counts against the reshard budget).
// Runs on the shard goroutine.
func (sh *shard) handlePlan(cmd *planCmd) planResult {
	var frames []migrationFrame
	for _, name := range sh.order {
		target := cmd.ring.ShardOf(name)
		if target == sh.idx && sh.idx < cmd.nshards {
			continue
		}
		tn := sh.tenants[name]
		rec := migrationRecord{Name: name}
		if sh.store != nil && !tn.dirty && tn.chunk != 0 {
			rec.Epoch = tn.epoch
			rec.Class = sh.classField(tn.class)
			rec.Chunk = ckptstore.FormatChunkID(tn.chunk)
		} else {
			state, err := sh.tenantPayload(tn, sh.cfg.RecordDecisions && sh.declog == nil)
			if err != nil {
				return planResult{err: err}
			}
			rec.State = state
		}
		if err := sh.attachLogDecisions(&rec); err != nil {
			return planResult{err: err}
		}
		enc, err := sh.encodeFrame(&rec, cmd.newEpoch, target)
		if err != nil {
			return planResult{err: err}
		}
		frames = append(frames, migrationFrame{
			tenant: name,
			class:  sh.classes[tn.class].Name,
			target: target,
			data:   enc,
		})
	}
	// Evicted stubs migrate too (sorted for deterministic plan order): their
	// state already lives in the shared chunk store, so the frame is only the
	// reference plus identity.
	stubs := make([]string, 0, len(sh.evicted))
	for name := range sh.evicted {
		stubs = append(stubs, name)
	}
	sort.Strings(stubs)
	for _, name := range stubs {
		target := cmd.ring.ShardOf(name)
		if target == sh.idx && sh.idx < cmd.nshards {
			continue
		}
		stub := sh.evicted[name]
		rec := migrationRecord{
			Name:    name,
			Epoch:   stub.epoch,
			Class:   sh.classField(stub.class),
			Evicted: true,
			Chunk:   ckptstore.FormatChunkID(stub.chunk),
		}
		if err := sh.attachLogDecisions(&rec); err != nil {
			return planResult{err: err}
		}
		enc, err := sh.encodeFrame(&rec, cmd.newEpoch, target)
		if err != nil {
			return planResult{err: err}
		}
		frames = append(frames, migrationFrame{
			tenant: name,
			class:  sh.classes[stub.class].Name,
			target: target,
			data:   enc,
		})
	}
	return planResult{frames: frames}
}

// migrationRecord is the body of a reshard migration frame: one tenant's
// name plus either its full state (State, the tenant payload a chunk holds)
// or a reference into the shared chunk store. A reference frame moves an
// evicted stub as a stub (Evicted) and a clean chunk-backed resident as a
// resident the target resolves; it carries the epoch and class the stub
// needs. LogDecisions carries the tenant's streaming-log records so its
// /v1/decisions history survives the move.
type migrationRecord struct {
	Name  string `json:"name"`
	State []byte `json:"state,omitempty"`

	Epoch   int64  `json:"epoch,omitempty"`
	Class   string `json:"class,omitempty"`
	Evicted bool   `json:"evicted,omitempty"`
	Chunk   string `json:"chunk,omitempty"`

	LogDecisions []logDecision `json:"log_decisions,omitempty"`
}

// logDecision is one streaming-log record riding a migration frame: the
// global round it was appended at and the serialized stream.Decision.
type logDecision struct {
	Round    int64           `json:"round"`
	Decision json.RawMessage `json:"decision"`
}

// attachLogDecisions copies a migrating tenant's streaming-log records onto
// its frame, so the target shard can replay them into its own log.
func (sh *shard) attachLogDecisions(rec *migrationRecord) error {
	if sh.declog == nil {
		return nil
	}
	if sh.declogErr != nil {
		return fmt.Errorf("serve: shard %d decision log failed earlier: %w", sh.idx, sh.declogErr)
	}
	recs, err := sh.declog.ReadTenant(rec.Name)
	if err != nil {
		return fmt.Errorf("serve: reading decision log of migrating tenant %q: %w", rec.Name, err)
	}
	for _, lr := range recs {
		rec.LogDecisions = append(rec.LogDecisions, logDecision{Round: lr.Round, Decision: lr.Payload})
	}
	return nil
}

// encodeFrame wraps one migration record in a binary migration frame
// addressed to its target shard under the new epoch.
func (sh *shard) encodeFrame(rec *migrationRecord, newEpoch int64, target int) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: serializing tenant %q for migration: %w", rec.Name, err)
	}
	enc, err := EncodeCheckpointFrame(&CheckpointFrame{
		Worker: reshardWorker,
		Shard:  target,
		Epoch:  newEpoch,
		Round:  sh.round,
		Data:   data,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: framing tenant %q for migration: %w", rec.Name, err)
	}
	return enc, nil
}

// adoptFrames restores migration frames onto this shard: the inject half of
// the checkpoint→transfer→restore path. Runs on the shard goroutine (or
// before it starts, for shards created by a split).
func (sh *shard) adoptFrames(frames []migrationFrame) error {
	for _, mf := range frames {
		cf, err := DecodeCheckpointFrame(mf.data)
		if err != nil {
			return fmt.Errorf("serve: decoding migration frame for tenant %q: %w", mf.tenant, err)
		}
		if cf.Shard != sh.idx {
			return fmt.Errorf("serve: migration frame for shard %d delivered to shard %d", cf.Shard, sh.idx)
		}
		if cf.Round != sh.round {
			return fmt.Errorf("serve: migration frame at round %d, shard %d is at %d", cf.Round, sh.idx, sh.round)
		}
		var rec migrationRecord
		if err := json.Unmarshal(cf.Data, &rec); err != nil {
			return fmt.Errorf("serve: decoding migrated tenant %q: %w", mf.tenant, err)
		}
		if err := ValidateTenant(rec.Name); err != nil {
			return fmt.Errorf("serve: migrated tenant: %w", err)
		}
		if _, dup := sh.tenants[rec.Name]; dup {
			return fmt.Errorf("serve: migration repeats tenant %q on shard %d", rec.Name, sh.idx)
		}
		if _, dup := sh.evicted[rec.Name]; dup {
			return fmt.Errorf("serve: migration repeats tenant %q on shard %d", rec.Name, sh.idx)
		}
		if rec.Chunk != "" {
			if err := sh.adoptChunkFrame(&rec, cf.Round); err != nil {
				return err
			}
		} else {
			ti, err := readTenantPayload(rec.State, rec.Name, cf.Round)
			if err != nil {
				return err
			}
			tn, err := sh.buildTenant(ti)
			if err != nil {
				return err
			}
			sh.adoptTenant(tn)
		}
		if len(rec.LogDecisions) > 0 {
			if sh.declog == nil {
				return fmt.Errorf("serve: migrated tenant %q carries log decisions, shard %d has no decision log", rec.Name, sh.idx)
			}
			for _, ld := range rec.LogDecisions {
				if err := sh.declog.Append(rec.Name, ld.Round, ld.Decision); err != nil {
					return fmt.Errorf("serve: replaying decision log of migrated tenant %q: %w", rec.Name, err)
				}
			}
		}
	}
	sort.Strings(sh.order)
	sh.setStateGauges()
	sh.setPagingGauges()
	return nil
}

// adoptChunkFrame restores one chunk-reference migration frame: an evicted
// stub stays a stub (the chunk store is shared, nothing to copy), a clean
// resident is resolved from its chunk.
func (sh *shard) adoptChunkFrame(rec *migrationRecord, round int64) error {
	if sh.store == nil {
		return fmt.Errorf("serve: migrated tenant %q is chunk-backed, shard %d has no chunk store", rec.Name, sh.idx)
	}
	id, err := ckptstore.TenantRef{Name: rec.Name, Chunk: rec.Chunk}.ChunkID()
	if err != nil {
		return fmt.Errorf("serve: migrated tenant %q: %w", rec.Name, err)
	}
	if rec.Evicted {
		class, ok := sh.restoreClass(rec.Class)
		if !ok {
			return fmt.Errorf("serve: migrated tenant %q has unknown class %q", rec.Name, rec.Class)
		}
		if !sh.store.Has(id) {
			return fmt.Errorf("serve: migrated tenant %q references missing chunk %s", rec.Name, rec.Chunk)
		}
		if rec.Epoch < 0 || rec.Epoch > round {
			return fmt.Errorf("serve: migrated tenant %q has epoch %d outside [0, %d]", rec.Name, rec.Epoch, round)
		}
		sh.evicted[rec.Name] = evictedStub{chunk: id, epoch: rec.Epoch, class: class}
		return nil
	}
	payload, err := sh.readChunk(id)
	if err != nil {
		return fmt.Errorf("serve: reading migrated tenant %q: %w", rec.Name, err)
	}
	ti, err := readTenantPayload(payload, rec.Name, round)
	if err != nil {
		return fmt.Errorf("serve: migrated tenant %q: %w", rec.Name, err)
	}
	tn, err := sh.buildTenant(ti)
	if err != nil {
		return err
	}
	tn.chunk = id
	tn.lastActive = round
	sh.adoptTenant(tn)
	return nil
}

// handleRemove drops the named tenants (their state now lives on another
// shard). Runs on the shard goroutine.
func (sh *shard) handleRemove(names []string) {
	drop := make(map[string]bool, len(names))
	for _, name := range names {
		tn := sh.tenants[name]
		if tn == nil {
			if _, ok := sh.evicted[name]; ok {
				// A migrated stub: its state lives in the shared chunk store and
				// now belongs to the target shard.
				delete(sh.evicted, name)
				sh.setPagingGauges()
			}
			continue
		}
		drop[name] = true
		if tn.dirty {
			sh.clearDirty(tn)
		}
		delete(sh.tenants, name)
		sh.backlog -= len(tn.queued)
		sh.classBacklog[tn.class] -= len(tn.queued)
		sh.inflight -= len(tn.inflight)
	}
	if len(drop) == 0 {
		return
	}
	order := make([]string, 0, len(sh.order)-len(drop))
	for _, name := range sh.order {
		if !drop[name] {
			order = append(order, name)
		}
	}
	sh.order = order
	sh.setStateGauges()
}
