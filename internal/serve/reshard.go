package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

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
	// Moved is the number of tenants migrated shard-to-shard. MigratedBytes
	// is, for a service, the size of the tenant chunks the movers' cut
	// wrote; references (clean chunk-backed tenants, evicted stubs) and the
	// decision-log segments beside them count nothing. A dispatcher reports
	// the size of the re-bundled shard set instead.
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

// ErrReshardBudget marks a reshard refused because the chunk bytes its cut
// wrote exceed some class's slice of Config.ReshardBudget. No tenant on any
// shard has changed.
var ErrReshardBudget = errors.New("serve: reshard migration exceeds class budget")

// Reshard resizes the pool to newShards under live traffic, moving tenants
// the way a boot restore and an OpenShard do. The sequence: park new
// submissions behind the gate, fence every shard onto the new epoch
// (in-flight submissions bounce and re-park), cut each shard's movers (the
// tenants the new ring routes elsewhere) and their decision-log records into
// a manifest without changing the shard, route those manifests to their
// targets with ReshardManifests, adopt them there through adoptRefs and
// append their records to the targets' logs, drop the movers and their
// records from their sources, then atomically flip routing by swapping the
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

	// Hold the round barrier: the whole migration happens between rounds,
	// and no Checkpoint can collect the chunks the cut writes before the
	// targets adopt them.
	s.tickMu.Lock()
	defer s.tickMu.Unlock()

	old := s.pl.Load()
	if newShards == len(old.shards) {
		return nil, fmt.Errorf("serve: service already has %d shards", newShards)
	}
	newEpoch := old.epoch + 1
	round := s.round.Load()

	// Build and start the grown shards. They are outside the placement until
	// the flip, so nothing but this reshard reaches them.
	surviving := len(old.shards)
	if newShards < surviving {
		surviving = newShards
	}
	shards := make([]*shard, newShards)
	copy(shards, old.shards[:surviving])
	for i := surviving; i < newShards; i++ {
		sh, err := newShard(i, s.cfg, s.store)
		if err != nil {
			return nil, err
		}
		sh.epoch = newEpoch
		sh.nshards = newShards
		sh.round = round
		shards[i] = sh
	}
	for _, sh := range shards[surviving:] {
		sh.start()
	}

	// Phase 1: fence. Every old shard adopts the new epoch; submissions
	// routed under the old placement bounce back to the handler, which parks
	// on the gate.
	s.fenceShards(old.shards, newEpoch, newShards)
	rollback := func() {
		for _, sh := range shards[surviving:] {
			sh.stop()
		}
		s.fenceShards(old.shards, old.epoch, len(old.shards))
	}

	// Phase 2: cut and route. Each old shard cuts its movers into a manifest
	// of the old placement, writing the chunks the references need and its
	// movers' decision-log records to the pool, and ReshardManifests routes
	// the cuts to the new ring. No tenant has changed yet: an abort stops the
	// grown shards and re-fences the old epoch.
	ring := newHashRing(newShards)
	pool := &reshardPool{
		store:      s.store,
		mem:        ckptstore.NewMemStore(),
		classBytes: make([]int64, len(normalizeClasses(s.cfg.Classes))),
	}
	cuts, err := s.cutMovers(old, ring, round, pool)
	if err == nil {
		err = s.checkReshardBudget(pool.classBytes)
	}
	var byTarget []*ckptstore.Manifest
	if err == nil {
		byTarget, err = ReshardManifests(cuts, newShards, pool)
	}
	if err != nil {
		rollback()
		return nil, err
	}

	// Phase 3: commit. Every target adopts its movers, then the movers are
	// dropped from their sources, each phase on every shard at once.
	// Adopt-before-remove: until removal, a mover's state exists on both
	// shards, but only the target is reachable after the flip and only the
	// source before a rollback.
	if err := s.injectMoves(shards, byTarget, ring, pool); err != nil {
		// Unreachable in practice (the cuts were taken a phase ago); unwind
		// the partial adoptions and re-fence the old epoch.
		s.removeMoved(shards, byTarget)
		rollback()
		return nil, err
	}
	s.removeMoved(old.shards, cuts)
	moved, bytes := 0, int64(0)
	for _, m := range cuts {
		moved += len(m.Tenants)
	}
	for _, b := range pool.classBytes {
		bytes += b
	}

	// Flip routing.
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

// reshardPool holds what one reshard's movers need besides their
// references: the tenant chunks the cut writes for movers whose state no
// chunk holds yet, and the log segments that carry the movers' decision
// records to their targets. Tenant chunks go to the service's Store when it
// has a state dir, so a durable mover is adopted from a chunk the next
// Checkpoint can name; otherwise, like every log segment, to a MemStore
// that lives for one reshard (no committed manifest ever names a mover log,
// so it never touches disk). The cuts run at once and a MemStore takes no
// concurrent writes, so every access holds mu.
type reshardPool struct {
	mu    sync.Mutex
	store *ckptstore.Store
	mem   *ckptstore.MemStore
	// classBytes sums the tenant chunk bytes written, by class index: what
	// Config.ReshardBudget and ReshardResponse.MigratedBytes count. Log
	// segments count nothing.
	classBytes []int64
}

// PutChunk and ReadChunk make the pool's MemStore the ckptstore.Chunks the
// movers' logs live in.
func (p *reshardPool) PutChunk(payload []byte) (ckptstore.PutResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mem.Put(payload), nil
}

func (p *reshardPool) ReadChunk(id uint64) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mem.ReadChunk(id)
}

// put writes one mover's payload as a full chunk and counts its bytes
// against the mover's class.
func (p *reshardPool) put(class int, payload []byte) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var res ckptstore.PutResult
	if p.store != nil {
		var err error
		if res, err = p.store.Put(payload, ckptstore.Ref{}); err != nil {
			return 0, err
		}
	} else {
		res = p.mem.Put(payload)
	}
	p.classBytes[class] += int64(res.Bytes)
	return res.Ref.ID, nil
}

// read returns the payload of a tenant chunk a mover's reference names.
func (p *reshardPool) read(id uint64) ([]byte, error) {
	if p.store != nil {
		payload, _, err := p.store.Resolve(id)
		return payload, err
	}
	return p.ReadChunk(id)
}

// cutMovers has every old shard cut its movers at once and wraps each cut in
// a manifest of the old placement at round: the complete set
// ReshardManifests routes.
func (s *Service) cutMovers(old *placement, ring hashRing, round int64, pool *reshardPool) ([]*ckptstore.Manifest, error) {
	replies := make([]chan planResult, len(old.shards))
	for i, sh := range old.shards {
		replies[i] = make(chan planResult, 1)
		sh.ch <- shardCmd{plan: &planCmd{ring: ring, pool: pool, reply: replies[i]}}
	}
	cuts := make([]*ckptstore.Manifest, len(old.shards))
	var firstErr error
	for i, r := range replies {
		res := <-r
		if res.err != nil && firstErr == nil {
			firstErr = res.err
		}
		cuts[i] = &ckptstore.Manifest{
			Schema:         ckptstore.ManifestSchema,
			Shard:          i,
			Shards:         len(old.shards),
			Round:          round,
			PlacementEpoch: old.epoch,
			Tenants:        res.refs,
			Log:            res.log,
		}
	}
	return cuts, firstErr
}

// checkReshardBudget enforces Config.ReshardBudget split across classes by
// weight: the chunk bytes the cut wrote for every class must fit its slice.
func (s *Service) checkReshardBudget(classBytes []int64) error {
	budget := s.cfg.ReshardBudget
	if budget == 0 {
		return nil
	}
	classes := normalizeClasses(s.cfg.Classes)
	var sum int64
	for _, c := range classes {
		sum += c.Weight
	}
	for i, c := range classes {
		slice := budget * c.Weight / sum
		if used := classBytes[i]; used > slice {
			return fmt.Errorf("%w: class %q needs %d bytes of its %d-byte slice (budget %d)",
				ErrReshardBudget, c.Name, used, slice, budget)
		}
	}
	return nil
}

// injectMoves has every target adopt the movers byTarget routes to it, each
// on its own goroutine and all at once, and returns the first error once
// every target has answered.
func (s *Service) injectMoves(shards []*shard, byTarget []*ckptstore.Manifest, ring hashRing, pool *reshardPool) error {
	replies := make([]chan error, len(byTarget))
	for t, m := range byTarget {
		replies[t] = make(chan error, 1)
		shards[t].ch <- shardCmd{inject: &injectCmd{m: m, ring: ring, pool: pool, reply: replies[t]}}
	}
	var first error
	for _, r := range replies {
		if err := <-r; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// removeMoved drops the tenants ms[i] names from shards[i], on every shard
// at once.
func (s *Service) removeMoved(shards []*shard, ms []*ckptstore.Manifest) {
	replies := make([]chan struct{}, len(ms))
	for i, m := range ms {
		names := make([]string, len(m.Tenants))
		for k, ref := range m.Tenants {
			names[k] = ref.Name
		}
		replies[i] = make(chan struct{}, 1)
		shards[i].ch <- shardCmd{remove: &removeCmd{tenants: names, reply: replies[i]}}
	}
	for _, r := range replies {
		<-r
	}
}

// handlePlan cuts this shard's movers, the tenants the target ring routes
// elsewhere, into manifest references without changing the shard: a clean
// chunk-backed resident or an evicted stub keeps its reference, and every
// other mover is written to the pool as a full chunk. One walk of the
// shard's decision log collects every mover's records into a log in the
// pool, which the cut names, so /v1/decisions is seamless across the move.
// Runs on the shard goroutine.
func (sh *shard) handlePlan(cmd *planCmd) planResult {
	if sh.declogErr != nil {
		return planResult{err: fmt.Errorf("serve: shard %d decision log failed earlier: %w", sh.idx, sh.declogErr)}
	}
	moves := func(name string) bool { return cmd.ring.ShardOf(name) != sh.idx }
	refs, err := sh.tenantRefs(moves, func(tn *tenant) (uint64, error) {
		if !tn.dirty && tn.chunk != 0 {
			return tn.chunk, nil
		}
		payload, err := sh.tenantPayload(tn)
		if err != nil {
			return 0, err
		}
		id, err := cmd.pool.put(tn.class, payload)
		if err != nil {
			return 0, fmt.Errorf("serve: shard %d migrating tenant %q: %w", sh.idx, tn.name, err)
		}
		return id, nil
	})
	if err != nil || sh.declog == nil {
		return planResult{refs: refs, err: err}
	}
	movers := ckptstore.NewDecLog(cmd.pool)
	if err := sh.declog.Walk(func(tenant string, round int64, payload []byte) error {
		if !moves(tenant) {
			return nil
		}
		return movers.Append(tenant, round, payload)
	}); err != nil {
		return planResult{err: fmt.Errorf("serve: shard %d collecting movers' decisions: %w", sh.idx, err)}
	}
	log, err := movers.Cut()
	return planResult{refs: refs, log: log, err: err}
}

// adoptMovers adopts the movers a reshard routed to this shard through
// adoptRefs, reading their chunks from the reshard's pool, then appends
// their decision-log records to this shard's log. Runs on the shard
// goroutine.
func (sh *shard) adoptMovers(cmd *injectCmd) error {
	if err := sh.adoptRefs(cmd.m.Tenants, cmd.m.Round, cmd.ring, cmd.pool.read); err != nil {
		return err
	}
	if sh.store == nil {
		// The in-memory pool dies with this reshard, so its chunks back
		// nothing: a later reshard writes the tenants afresh.
		for _, ref := range cmd.m.Tenants {
			sh.tenants[ref.Name].chunk = 0
		}
	}
	if sh.declog == nil {
		return nil
	}
	ids, err := cmd.m.LogIDs()
	if err == nil {
		err = ckptstore.WalkLog(cmd.pool, ids, sh.declog.Append)
	}
	if err != nil {
		return fmt.Errorf("serve: shard %d adopting movers' decisions: %w", sh.idx, err)
	}
	return nil
}

// handleRemove drops the named tenants and their decision-log records (their
// state and history now live on another shard). Runs on the shard goroutine.
func (sh *shard) handleRemove(names []string) {
	if len(names) == 0 {
		return
	}
	drop := make(map[string]bool, len(names))
	for _, name := range names {
		drop[name] = true
	}
	sh.dropLogRecords(drop)
	resident := 0
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
		resident++
		sh.clearDirty(tn)
		delete(sh.tenants, name)
		sh.backlog -= len(tn.queued)
		sh.classBacklog[tn.class] -= len(tn.queued)
		sh.inflight -= len(tn.inflight)
	}
	if resident == 0 {
		return
	}
	order := make([]string, 0, len(sh.order)-resident)
	for _, name := range sh.order {
		if !drop[name] {
			order = append(order, name)
		}
	}
	sh.order = order
	sh.setStateGauges()
}
