package dispatch

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rrsched/internal/atomicio"
	"rrsched/internal/ckptstore"
	"rrsched/internal/obs"
	"rrsched/internal/serve"
)

// Config parameterizes the dispatcher.
type Config struct {
	// Service is the scheduling-service shape handed to every worker at
	// registration. All workers run the same config; checkpoints are only
	// portable between identical services.
	Service ServiceConfig
	// HeartbeatEvery is the interval workers must heartbeat at. Default 1s.
	HeartbeatEvery time.Duration
	// MissBudget is how many heartbeat intervals may elapse without a
	// heartbeat before a worker is declared dead and its shards fail over.
	// Workers apply the same budget to fence themselves when they cannot
	// reach the dispatcher. Default 3.
	MissBudget int
	// StateDir, when set, persists every accepted checkpoint before the push
	// is acknowledged: one atomicio slot pair per shard (shard-NNNN.a.state
	// and shard-NNNN.b.state, records of schema rrdispatch-state/v3, each
	// synced with fdatasync), so a restarted dispatcher regrants shards from
	// the last state it acknowledged rather than starting them empty. A state
	// dir holding files of earlier versions (shard-NNNN.state of
	// rrdispatch-state/v2, shard-NNNN.json of v1) is refused. Empty disables
	// durability.
	StateDir string
}

func (cfg *Config) validate() error {
	if err := cfg.Service.validate(); err != nil {
		return err
	}
	if cfg.HeartbeatEvery < 0 {
		return fmt.Errorf("dispatch: negative heartbeat interval %v", cfg.HeartbeatEvery)
	}
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.MissBudget < 0 {
		return fmt.Errorf("dispatch: negative miss budget %d", cfg.MissBudget)
	}
	if cfg.MissBudget == 0 {
		cfg.MissBudget = 3
	}
	return nil
}

// lease is the dispatcher's record of one shard: who holds it, under which
// epoch, and the latest checkpoint pushed for it.
type lease struct {
	worker   string // "" while unassigned
	epoch    int64  // bumped on every grant and on every fencing revoke
	round    int64  // round of the stored checkpoint
	revoking bool   // graceful revoke issued; awaiting the final checkpoint

	// checkpoint is the latest accepted checkpoint as a self-contained
	// bundle: its manifest plus every chunk it names (nil = open fresh). It
	// is what is persisted, granted, and resharded; it is replaced whole,
	// never modified in place.
	checkpoint []byte
	// pool holds the chunks the last accepted manifest names, which the
	// worker's next push may reference instead of resending (its clean
	// tenants). Memory only: after a dispatcher restart a push that
	// references a lost chunk is refused, and the worker resends every
	// chunk.
	pool *ckptstore.MemStore
	// deadSinceNs is non-zero while the shard awaits reassignment after its
	// holder died; cleared (and observed into the failover-latency histogram)
	// at the regrant.
	deadSinceNs int64
}

// workerInfo is the dispatcher's record of one registered worker.
type workerInfo struct {
	name       string
	addr       string
	alive      bool
	lastSeenNs int64
}

// Dispatcher owns the tenant→shard placement: it leases shards to registered
// workers, renews the leases on heartbeats, stores the checkpoints workers
// push after every tick, and — when a worker misses its heartbeat budget —
// revokes its leases and regrants the shards to survivors from those stored
// checkpoints.
type Dispatcher struct {
	cfg Config
	reg *obs.Registry
	met *obs.DispatchMetrics
	now func() int64 // obs.Now, injectable in tests

	mu      sync.Mutex
	workers map[string]*workerInfo
	leases  []lease
	// configEpoch versions cfg.Service. Reshard bumps it; workers echo it in
	// heartbeats, and a mismatch withholds grants until the worker rebuilds
	// its hosted service from the fresh config.
	configEpoch int64

	// filesMu guards files, each shard's slot pair (nil without a state
	// dir). A commit holds it shared from its write through its sync;
	// Reshard and Close hold it exclusively, so the table never changes
	// between a commit's write and its sync. It is taken before a shard
	// file's lock, which is taken before d.mu. With a state dir, files has
	// one pair per lease: boot and Reshard install the two tables together,
	// and only once the new table is on disk.
	filesMu sync.RWMutex
	files   []*shardFile
	// beforeSync, when set, runs in a commit between publishing its round
	// (d.mu released) and syncing its record: a test seam for landing a
	// fence while the sync is in flight.
	beforeSync func(shard int)
	// afterStateStep, when set, runs after each durable step of
	// rewriteState (a shard's records written and synced, or a shard's
	// files removed): a test seam for copying the state dir as a crash at
	// that point leaves it.
	afterStateStep func()

	monitorStop chan struct{}
	monitorDone chan struct{}
	closeOnce   sync.Once
}

// shardFile is one shard's state on disk. mu spans each record's write and
// its sync, so the next record never overwrites a slot before the record
// in the other slot is durable.
type shardFile struct {
	mu    sync.Mutex
	slots *atomicio.Slots
}

// New builds a dispatcher and starts its failure monitor. If cfg.StateDir
// holds checkpoints from a previous incarnation (same shard count), they seed
// the lease table so regrants resume from persisted state.
func New(cfg Config) (*Dispatcher, error) {
	return newDispatcher(cfg, obs.Now)
}

// newDispatcher is New with an injectable clock, so tests drive failure
// detection deterministically.
func newDispatcher(cfg Config, now func() int64) (*Dispatcher, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	met, err := obs.NewDispatchMetrics(reg)
	if err != nil {
		return nil, err
	}
	d := &Dispatcher{
		cfg:         cfg,
		reg:         reg,
		met:         met,
		now:         now,
		workers:     map[string]*workerInfo{},
		leases:      make([]lease, cfg.Service.Shards),
		monitorStop: make(chan struct{}),
		monitorDone: make(chan struct{}),
	}
	if cfg.StateDir != "" {
		if err := d.loadState(); err != nil {
			return nil, err
		}
	}
	go d.monitor()
	return d, nil
}

// Close stops the failure monitor and closes the state files. Workers
// discover the dispatcher is gone through failed heartbeats and fence
// themselves.
func (d *Dispatcher) Close() {
	d.closeOnce.Do(func() {
		close(d.monitorStop)
		<-d.monitorDone
		d.filesMu.Lock()
		defer d.filesMu.Unlock()
		for _, f := range d.files {
			_ = f.slots.Close() // every acknowledged record is already synced; a failed close loses none
		}
	})
}

// monitor periodically sweeps for workers that have exceeded the heartbeat
// miss budget. It polls at half the heartbeat interval so detection lags the
// budget by at most half an interval.
func (d *Dispatcher) monitor() {
	defer close(d.monitorDone)
	every := d.cfg.HeartbeatEvery / 2
	if every <= 0 {
		every = d.cfg.HeartbeatEvery
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.sweep(d.now())
		case <-d.monitorStop:
			return
		}
	}
}

// sweep declares every worker dead whose last heartbeat is older than
// HeartbeatEvery × MissBudget, fences its leases (epoch bump), and marks its
// shards for reassignment at the next surviving heartbeat.
func (d *Dispatcher) sweep(nowNs int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	deadline := int64(d.cfg.HeartbeatEvery) * int64(d.cfg.MissBudget)
	for _, w := range d.workers {
		if !w.alive || nowNs-w.lastSeenNs <= deadline {
			continue
		}
		d.met.HeartbeatMisses.Inc()
		w.alive = false
		d.met.WorkersDead.Inc()
		d.met.Workers.Add(-1)
		for i := range d.leases {
			l := &d.leases[i]
			if l.worker != w.name {
				continue
			}
			// Fence: any checkpoint the dead worker still manages to push
			// carries the old epoch and is rejected. The stored checkpoint —
			// taken synchronously after the shard's last completed tick — is
			// what the survivor restores.
			l.epoch++
			l.worker = ""
			l.revoking = false
			l.deadSinceNs = nowNs
			d.met.LeaseRevokes.Inc()
			d.met.Failovers.Inc()
			d.met.ShardsAssigned.Add(-1)
		}
	}
}

// register admits (or re-admits) a worker. A re-registration under a live
// name resets the worker's record: a restarted process holds nothing, and
// lease reconciliation at its next heartbeat will fence whatever the table
// still attributes to it.
func (d *Dispatcher) register(req *RegisterRequest) *RegisterResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[req.Worker]
	if !ok {
		w = &workerInfo{name: req.Worker}
		d.workers[req.Worker] = w
	}
	if !w.alive {
		d.met.Workers.Add(1)
	}
	w.addr = req.Addr
	w.alive = true
	w.lastSeenNs = d.now()
	return &RegisterResponse{
		Schema:           WireSchema,
		Config:           d.cfg.Service,
		HeartbeatEveryMs: d.cfg.HeartbeatEvery.Milliseconds(),
		MissBudget:       d.cfg.MissBudget,
		ConfigEpoch:      d.configEpoch,
	}
}

// errUnknownWorker marks a heartbeat from a worker that never registered (or
// that the dispatcher restarted away); the worker must re-register.
var errUnknownWorker = fmt.Errorf("dispatch: unknown worker; register first")

// heartbeat renews a worker's liveness and reconciles leases: held leases are
// renewed or revoked, lost leases are fenced, over-fair-share holdings are
// revoked gracefully, and unassigned shards are granted up to the fair share.
func (d *Dispatcher) heartbeat(req *HeartbeatRequest) (*HeartbeatResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.workers[req.Worker]
	if !ok {
		return nil, errUnknownWorker
	}
	d.met.Heartbeats.Inc()
	if !w.alive {
		// The worker outlived a death sentence (a partition healed). Its
		// leases were fenced at the sweep; reconciliation below revokes
		// whatever it still claims to hold.
		w.alive = true
		d.met.Workers.Add(1)
	}
	w.lastSeenNs = d.now()

	resp := &HeartbeatResponse{Schema: WireSchema}
	if req.ConfigEpoch != d.configEpoch {
		// The worker's hosted service was built under an older (or, after a
		// dispatcher restart, newer) config generation. Hand back the current
		// config and withhold grants: a checkpoint taken under one shard count
		// must never be opened into a service built for another. Revocation of
		// whatever it still claims proceeds below as usual.
		resp.ConfigEpoch = d.configEpoch
		cfgCopy := d.cfg.Service
		resp.Config = &cfgCopy
	}
	held := map[int]LeaseInfo{}
	for _, l := range req.Held {
		if l.Shard < len(d.leases) {
			held[l.Shard] = l
		} else {
			resp.Revokes = append(resp.Revokes, l.Shard)
		}
	}

	// Leases the table attributes to this worker but the worker no longer
	// claims: a lost grant response or a restarted process. Fence and free.
	for i := range d.leases {
		l := &d.leases[i]
		if l.worker != req.Worker {
			continue
		}
		if _, ok := held[i]; !ok {
			l.epoch++
			l.worker = ""
			l.revoking = false
			d.met.LeaseRevokes.Inc()
			d.met.ShardsAssigned.Add(-1)
		}
	}

	// Held leases: renew matches, revoke everything else (zombie holdings
	// under a stale epoch, or shards reassigned while the worker was away).
	valid := 0
	for shard, info := range held {
		l := &d.leases[shard]
		if l.worker == req.Worker && l.epoch == info.Epoch {
			d.met.LeaseRenewals.Inc()
			if l.revoking {
				resp.Revokes = append(resp.Revokes, shard)
			} else {
				valid++
			}
		} else {
			d.met.StaleEpochs.Inc()
			resp.Revokes = append(resp.Revokes, shard)
		}
	}

	// Fair share: ceil(shards / live workers). Graceful rebalance revokes the
	// excess (highest shard index first, deterministically); the freed shards
	// reach an underloaded worker once the final checkpoint lands.
	live := 0
	for _, wi := range d.workers {
		if wi.alive {
			live++
		}
	}
	fair := (len(d.leases) + live - 1) / live
	if valid > fair {
		for i := len(d.leases) - 1; i >= 0 && valid > fair; i-- {
			l := &d.leases[i]
			if l.worker == req.Worker && !l.revoking {
				if _, ok := held[i]; ok {
					l.revoking = true
					resp.Revokes = append(resp.Revokes, i)
					d.met.LeaseRevokes.Inc()
					valid--
				}
			}
		}
	}

	// Grants: hand unassigned shards to this worker up to its fair share,
	// each with the latest stored checkpoint. A worker on a stale config gets
	// nothing until it rebuilds and heartbeats under the current epoch.
	for i := range d.leases {
		if valid >= fair || resp.Config != nil {
			break
		}
		l := &d.leases[i]
		if l.worker != "" {
			continue
		}
		l.worker = req.Worker
		l.epoch++
		resp.Grants = append(resp.Grants, LeaseGrant{Shard: i, Epoch: l.epoch, Round: l.round, Checkpoint: l.checkpoint})
		d.met.LeaseGrants.Inc()
		d.met.ShardsAssigned.Add(1)
		if l.deadSinceNs != 0 {
			d.met.FailoverNs.Observe(d.now() - l.deadSinceNs)
			l.deadSinceNs = 0
		}
		valid++
	}
	sort.Ints(resp.Revokes)
	return resp, nil
}

// errStaleEpoch marks a checkpoint push fenced by a newer lease epoch.
var errStaleEpoch = fmt.Errorf("dispatch: stale lease epoch")

// errBadCheckpoint marks a checkpoint push whose bundle is malformed, cannot
// be resolved, or contradicts the push that carries it. The lease is left
// exactly as it was.
var errBadCheckpoint = fmt.Errorf("dispatch: bad checkpoint")

// storeCheckpoint accepts a checkpoint push: the freshest state of one shard,
// fenced by lease epoch. The bundle is validated against the lease's chunk
// pool (serve.FoldBundle) with d.mu released, so heartbeats,
// placement reads and other shards' pushes do not wait on the fold; it must
// agree with the push: same shard, the fleet's shard count, the pushed round.
// The result is then committed, and only if the lease is still the one the
// fold started from (commitPush). With a state dir, it returns only once the
// push is on disk, so an acknowledged push survives a power loss. A refused
// push changes nothing; a bundle referencing a chunk the pool lost (a
// dispatcher restart) is refused too, and the worker resends every chunk. A
// final push on a revoking lease completes the graceful handoff and frees
// the shard for regranting.
func (d *Dispatcher) storeCheckpoint(req *CheckpointPush) error {
	fp, err := d.foldPush(req)
	if err != nil {
		return err
	}
	return d.commitPush(fp)
}

// foldedPush is a push folded outside d.mu, with the lease state the fold
// started from: what commitPush re-checks before storing the result.
type foldedPush struct {
	req         *CheckpointPush
	configEpoch int64
	pool        *ckptstore.MemStore // the lease's pool when the fold began
	folded      []byte
	next        *ckptstore.MemStore
}

// foldPush checks the push's fence under d.mu, then folds its bundle against
// the lease's pool with d.mu released. A published pool is never written
// again (the fold works on a clone), so it is safe to read unlocked.
func (d *Dispatcher) foldPush(req *CheckpointPush) (*foldedPush, error) {
	d.mu.Lock()
	shards := len(d.leases)
	if req.Shard >= shards {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: push names shard %d of %d", errBadCheckpoint, req.Shard, shards)
	}
	l := &d.leases[req.Shard]
	if l.worker != req.Worker || l.epoch != req.Epoch {
		err := d.staleLocked(req, l)
		d.mu.Unlock()
		return nil, err
	}
	fp := &foldedPush{req: req, configEpoch: d.configEpoch, pool: l.pool}
	d.mu.Unlock()

	folded, m, next, err := serve.FoldBundle(req.Data, fp.pool)
	if err != nil {
		return nil, fmt.Errorf("%w: shard %d: %v", errBadCheckpoint, req.Shard, err)
	}
	switch {
	case m.Shard != req.Shard:
		return nil, fmt.Errorf("%w: push for shard %d carries shard %d's manifest", errBadCheckpoint, req.Shard, m.Shard)
	case m.Shards != shards:
		return nil, fmt.Errorf("%w: shard %d manifest was cut under %d shards, the fleet has %d", errBadCheckpoint, req.Shard, m.Shards, shards)
	case m.Round != req.Round:
		return nil, fmt.Errorf("%w: shard %d push claims round %d, its manifest is at round %d", errBadCheckpoint, req.Shard, req.Round, m.Round)
	}
	fp.folded, fp.next = folded, next
	return fp, nil
}

// commitPush stores a folded push. With a state dir it holds the shard
// file's lock from the record's write through its sync, and publishLocked
// writes the record under d.mu; only the sync runs after d.mu is released,
// so heartbeats, placement reads and the other shards' commits do not wait
// on the disk. The push is acknowledged (nil) only once the sync returned. A
// failed write or sync fails the push, and the worker resends it.
func (d *Dispatcher) commitPush(fp *foldedPush) error {
	d.filesMu.RLock()
	defer d.filesMu.RUnlock()
	var sf *shardFile
	if fp.req.Shard < len(d.files) { // else no state dir, or a shard since merged away, which the fence refuses
		sf = d.files[fp.req.Shard]
		sf.mu.Lock()
		defer sf.mu.Unlock()
	}
	d.mu.Lock()
	err := d.publishLocked(fp, sf)
	d.mu.Unlock()
	if err != nil || sf == nil {
		return err
	}
	if d.beforeSync != nil {
		d.beforeSync(fp.req.Shard)
	}
	if err := sf.slots.Sync(); err != nil {
		return fmt.Errorf("dispatch: syncing shard %d state: %w", fp.req.Shard, err)
	}
	return nil
}

// publishLocked refuses a folded push as stale unless the lease is exactly
// as the fold found it: same worker, same lease epoch, same config epoch (no
// reshard since), and the same pool (no other push committed since, or the
// fold's pool would drop that push's chunks). An accepted push is written to
// the shard's slot file first (sf, nil without a state dir) and published
// after, so a lease never advertises a round its file does not hold; a
// failed write publishes nothing. Caller holds d.mu and sf's lock.
func (d *Dispatcher) publishLocked(fp *foldedPush, sf *shardFile) error {
	req := fp.req
	if d.configEpoch != fp.configEpoch {
		d.met.StaleEpochs.Inc()
		return fmt.Errorf("%w: shard %d push was folded under config epoch %d, the fleet is at %d",
			errStaleEpoch, req.Shard, fp.configEpoch, d.configEpoch)
	}
	l := &d.leases[req.Shard]
	if l.worker != req.Worker || l.epoch != req.Epoch {
		return d.staleLocked(req, l)
	}
	if l.pool != fp.pool {
		d.met.StaleEpochs.Inc()
		return fmt.Errorf("%w: shard %d push from %q was overtaken by another push on the same lease", errStaleEpoch, req.Shard, req.Worker)
	}
	if sf != nil {
		if err := writeState(sf, req.Shard, l.epoch, fp.folded); err != nil {
			return err
		}
	}
	l.checkpoint = fp.folded
	l.pool = fp.next
	l.round = req.Round
	d.met.Checkpoints.Inc()
	d.met.CheckpointBytes.Observe(int64(len(req.Data)))
	if req.Final {
		l.worker = ""
		l.revoking = false
		d.met.ShardsAssigned.Add(-1)
	}
	return nil
}

// staleLocked counts and describes a push fenced by its lease: another
// worker holds the shard, or the lease epoch moved. Caller holds d.mu.
func (d *Dispatcher) staleLocked(req *CheckpointPush, l *lease) error {
	d.met.StaleEpochs.Inc()
	return fmt.Errorf("%w: shard %d epoch %d from %q, lease is epoch %d held by %q",
		errStaleEpoch, req.Shard, req.Epoch, req.Worker, l.epoch, l.worker)
}

// Reshard resizes the fleet to newShards at the current round boundary: it
// splits or merges the stored bundle set through reshardBundles (per the
// consistent-hash ring of the new count), fences
// every outstanding lease epoch, bumps the config epoch so workers rebuild
// their hosted services before claiming anything, and rebuilds the lease table
// so the next heartbeats grant the migrated shards.
//
// The precondition is the fleet-wide round barrier the driver already
// maintains: every shard must have a stored checkpoint, all at the same round.
// (A fleet that has never checkpointed resizes without a transform.) Between
// driver rounds that holds by construction — a Round returns only once every
// shard's round call answered, which is after its push at the driver's round
// was accepted — so a reshard can only land at a round boundary, where the
// serve-layer determinism proof needs it to.
func (d *Dispatcher) Reshard(newShards int) (*serve.ReshardResponse, error) {
	start := d.now()
	d.filesMu.Lock()
	defer d.filesMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	old := len(d.leases)
	if newShards < 1 || newShards > MaxShards {
		return nil, fmt.Errorf("dispatch: reshard to %d shards out of range (1..%d)", newShards, MaxShards)
	}
	if newShards == old {
		return nil, fmt.Errorf("dispatch: fleet already has %d shards", old)
	}
	have := 0
	for i := range d.leases {
		if len(d.leases[i].checkpoint) > 0 {
			have++
		}
	}
	if have != 0 && have != old {
		return nil, fmt.Errorf("dispatch: reshard needs a stored checkpoint for every shard (%d of %d present); drive a full round first", have, old)
	}
	var newData [][]byte
	var round, migrated int64
	moved := 0
	if have == old {
		round = d.leases[0].round
		olds := make([][]byte, old)
		for i := range d.leases {
			if d.leases[i].round != round {
				return nil, fmt.Errorf("dispatch: shard rounds diverge (shard 0 at %d, shard %d at %d); reshard lands only on a round boundary",
					round, i, d.leases[i].round)
			}
			olds[i] = d.leases[i].checkpoint
		}
		var err error
		if newData, moved, err = reshardBundles(olds, newShards); err != nil {
			return nil, err
		}
		for i := range newData {
			migrated += int64(len(newData[i]))
		}
	}
	// Fence everything the old placement issued: new leases start past the
	// highest epoch ever granted, so any straggler push or held claim from the
	// old topology is stale on arrival.
	maxEpoch := int64(0)
	for i := range d.leases {
		maxEpoch = max(maxEpoch, d.leases[i].epoch)
	}
	leases := make([]lease, newShards)
	for i := range leases {
		leases[i] = lease{epoch: maxEpoch + 1, round: round}
		if newData != nil {
			leases[i].checkpoint = newData[i]
		}
	}
	// The new table is on disk before it is installed. A failed rewrite
	// leaves the fleet at the old count with its leases standing; the state
	// dir may then hold records of both counts until every shard commits
	// again, which boot refuses rather than guess between.
	if d.cfg.StateDir != "" {
		files, err := d.rewriteState(leases)
		if err != nil {
			return nil, err
		}
		d.files = files
	}
	for i := range d.leases {
		if d.leases[i].worker != "" {
			d.met.LeaseRevokes.Inc()
			d.met.ShardsAssigned.Add(-1)
		}
	}
	d.leases = leases
	d.cfg.Service.Shards = newShards
	d.configEpoch++
	d.met.Reshards.Inc()
	return &serve.ReshardResponse{
		Schema:        serve.ReshardSchema,
		From:          old,
		Shards:        newShards,
		Epoch:         d.configEpoch,
		Round:         round,
		Moved:         moved,
		MigratedBytes: migrated,
		DurationNs:    d.now() - start,
	}, nil
}

// reshardBundles splits or merges a complete set of stored shard bundles into
// newShards bundles: serve.ReshardManifests re-routes every tenant reference
// and decision-log record through the new ring (keeping the round, bumping
// the placement epoch), and each new bundle carries the chunks its manifest
// needs. moved is the number
// of tenants whose shard changes. Used by the live Reshard and by a boot into
// a new shard count.
func reshardBundles(olds [][]byte, newShards int) (news [][]byte, moved int, err error) {
	ms := make([]*ckptstore.Manifest, len(olds))
	chunks := ckptstore.NewMemStore()
	for i, data := range olds {
		raw, err := chunks.AddBundle(data)
		if err != nil {
			return nil, 0, fmt.Errorf("dispatch: shard %d checkpoint: %w", i, err)
		}
		if ms[i], err = ckptstore.DecodeManifest(raw); err != nil {
			return nil, 0, fmt.Errorf("dispatch: shard %d checkpoint: %w", i, err)
		}
	}
	out, err := serve.ReshardManifests(ms, newShards, chunks)
	if err != nil {
		return nil, 0, err
	}
	news = make([][]byte, newShards)
	for i, m := range out {
		manifest, err := ckptstore.EncodeManifest(m)
		if err != nil {
			return nil, 0, err
		}
		roots, err := m.Roots()
		if err != nil {
			return nil, 0, err
		}
		live := make(map[uint64]bool, len(roots))
		for _, id := range roots {
			live[id] = true
		}
		if news[i], err = chunks.EncodeBundle(manifest, live); err != nil {
			return nil, 0, err
		}
	}
	if moved, err = movedTenants(ms, newShards); err != nil {
		return nil, 0, err
	}
	return news, moved, nil
}

// movedTenants counts the tenants whose shard changes under the newShards
// ring — the migration volume a reshard reports. Names come from the
// manifests, each of which lists its own shard's tenants.
func movedTenants(ms []*ckptstore.Manifest, newShards int) (int, error) {
	ring, err := serve.NewRing(newShards)
	if err != nil {
		return 0, err
	}
	moved := 0
	for _, m := range ms {
		for _, t := range m.Tenants {
			if ring.ShardOf(t.Name) != m.Shard {
				moved++
			}
		}
	}
	return moved, nil
}

// Placement returns the current placement table, one entry per shard.
func (d *Dispatcher) Placement() *PlacementResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	resp := &PlacementResponse{Schema: WireSchema, Shards: make([]PlacementEntry, len(d.leases)), ConfigEpoch: d.configEpoch}
	for i := range d.leases {
		l := &d.leases[i]
		e := PlacementEntry{Shard: i, Epoch: l.epoch, Round: l.round}
		// A revoking lease is on its way out; advertising it would route new
		// traffic at a shard that is about to close.
		if l.worker != "" && !l.revoking {
			e.Worker = l.worker
			if w, ok := d.workers[l.worker]; ok {
				e.Addr = w.addr
			}
		}
		resp.Shards[i] = e
	}
	return resp
}

// StatsSchema versions the dispatcher /v1/stats response format.
const StatsSchema = "rrdispatch-stats/v1"

// WorkerStats is one worker row of the dispatcher stats.
type WorkerStats struct {
	Worker string `json:"worker"`
	Addr   string `json:"addr"`
	Alive  bool   `json:"alive"`
	Held   int    `json:"held"`
}

// StatsResponse is the body of the dispatcher's GET /v1/stats.
type StatsResponse struct {
	Schema   string        `json:"schema"`
	Shards   int           `json:"shards"`
	Assigned int           `json:"assigned"`
	Workers  []WorkerStats `json:"workers"`
	// Epoch is the config epoch: how many fleet reshards this dispatcher has
	// performed since boot.
	Epoch int64 `json:"epoch"`
}

// Stats assembles the dispatcher stats response. Workers are listed in name
// order.
func (d *Dispatcher) Stats() *StatsResponse {
	d.mu.Lock()
	defer d.mu.Unlock()
	resp := &StatsResponse{Schema: StatsSchema, Shards: len(d.leases), Epoch: d.configEpoch}
	heldBy := map[string]int{}
	for i := range d.leases {
		if d.leases[i].worker != "" {
			heldBy[d.leases[i].worker]++
			resp.Assigned++
		}
	}
	names := make([]string, 0, len(d.workers))
	for name := range d.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := d.workers[name]
		resp.Workers = append(resp.Workers, WorkerStats{
			Worker: name, Addr: w.addr, Alive: w.alive, Held: heldBy[name],
		})
	}
	return resp
}

// Metrics returns a snapshot of the dispatcher's metric registry.
func (d *Dispatcher) Metrics() *obs.Snapshot { return d.reg.Snapshot() }

// stateSchema versions the record each shard's slot pair holds: the schema
// line, the lease epoch as 8 little-endian bytes, then the shard's folded
// bundle verbatim. Shard index, shard count, and round live in the bundle's
// manifest. The schemas before it are refused by file name, not read:
// rrdispatch-state/v2 wrote the same bytes to one shard-NNNN.state file by
// tmp+rename, and rrdispatch-state/v1 a JSON wrapper to shard-NNNN.json.
const (
	stateSchema = "rrdispatch-state/v3"
	v2Schema    = "rrdispatch-state/v2"
	v1Schema    = "rrdispatch-state/v1"
)

var stateHeader = []byte(stateSchema + "\n")

// slotSuffixes name a shard's two slot files, shard-NNNN.a.state and
// shard-NNNN.b.state.
var slotSuffixes = [2]string{".a.state", ".b.state"}

// openShardFile opens shard i's slot pair and reads its newest record.
func (d *Dispatcher) openShardFile(i int) (*shardFile, atomicio.Record, error) {
	var paths [2]string
	for k, suffix := range slotSuffixes {
		paths[k] = filepath.Join(d.cfg.StateDir, fmt.Sprintf("shard-%04d%s", i, suffix))
	}
	slots, rec, err := atomicio.OpenSlots(paths[0], paths[1], 0o644)
	if err != nil {
		return nil, rec, fmt.Errorf("dispatch: shard %d state: %w", i, err)
	}
	return &shardFile{slots: slots}, rec, nil
}

// writeState writes one shard's record, its lease epoch and bundle, into
// the shard's next slot, unsynced. Caller holds sf's lock.
func writeState(sf *shardFile, shard int, epoch int64, bundle []byte) error {
	var e [8]byte
	binary.LittleEndian.PutUint64(e[:], uint64(epoch))
	if err := sf.slots.Write(stateHeader, e[:], bundle); err != nil {
		return fmt.Errorf("dispatch: writing shard %d state: %w", shard, err)
	}
	return nil
}

// rewriteState puts a new lease table on disk, as a reshard or a boot into
// a new shard count makes it, and returns the slot pairs that go with it;
// d.files is left as it is. Every stored checkpoint is written into both of
// its shard's slots, each synced, so neither slot still holds a record of
// the old count; then the files of the shards past the new count are
// removed. It returns once all of it is on disk. The shards are written from
// the last one down, so shard 0 holds its old record until the end: a crash
// part way leaves the old set untouched or records of both counts, which
// boot refuses, and never a set of one count that lacks a shard's tenants.
// Caller holds filesMu exclusively (no commit is in flight) and, after
// boot, d.mu.
func (d *Dispatcher) rewriteState(leases []lease) (files []*shardFile, err error) {
	if files, err = d.openFiles(len(leases)); err != nil {
		return nil, err
	}
	defer func() {
		if err == nil {
			return
		}
		for i, sf := range files {
			if i >= len(d.files) || sf != d.files[i] {
				_ = sf.slots.Close() // the rewrite failed and drops the pairs it opened; its error is the one to report
			}
		}
	}()
	for i := len(leases) - 1; i >= 0; i-- {
		l := &leases[i]
		if len(l.checkpoint) == 0 {
			continue
		}
		for range slotSuffixes {
			if err := writeState(files[i], i, l.epoch, l.checkpoint); err != nil {
				return nil, err
			}
			if err := files[i].slots.Sync(); err != nil {
				return nil, fmt.Errorf("dispatch: syncing shard %d state: %w", i, err)
			}
		}
		if d.afterStateStep != nil {
			d.afterStateStep()
		}
	}
	if err := d.removeFilesPast(len(leases)); err != nil {
		return nil, err
	}
	return files, nil
}

// openFiles returns a table of n slot pairs: d.files's pairs below n, and a
// newly opened pair for each shard that has none (its files are created at
// its first record). d.files is left as it is, so a failed open changes
// nothing.
func (d *Dispatcher) openFiles(n int) ([]*shardFile, error) {
	files := make([]*shardFile, n)
	copy(files, d.files)
	for i := range files {
		if files[i] == nil {
			sf, _, err := d.openShardFile(i)
			if err != nil {
				return nil, err
			}
			files[i] = sf
		}
	}
	return files, nil
}

// removeFilesPast removes the slot files of d.files's shards from n on.
func (d *Dispatcher) removeFilesPast(n int) error {
	for i := n; i < len(d.files); i++ {
		if sf := d.files[i]; sf != nil {
			if err := sf.slots.Remove(); err != nil {
				return fmt.Errorf("dispatch: removing shard %d state: %w", i, err)
			}
			if d.afterStateStep != nil {
				d.afterStateStep()
			}
		}
	}
	return nil
}

// shardState is one shard's newest record, decoded and validated.
type shardState struct {
	epoch    int64
	bundle   []byte
	manifest *ckptstore.Manifest
}

// loadState seeds the lease table from persisted checkpoints. When the
// persisted shard count matches the configured one, shards without a record
// are fine — shards that never checkpointed start fresh. When the counts
// differ (the dispatcher was rebooted into a new size), the complete
// persisted set is split or merged through reshardBundles at boot, exactly
// like a live reshard: the old epochs are fenced and the migrated set is
// persisted before any worker registers.
func (d *Dispatcher) loadState() error {
	idxs, err := d.scanStateDir()
	if err != nil {
		return err
	}
	states := map[int]*shardState{}
	diskShards := 0
	last := -1
	for _, i := range idxs {
		sf, rec, err := d.openShardFile(i)
		if err != nil {
			return err
		}
		for len(d.files) <= i {
			d.files = append(d.files, nil)
		}
		d.files[i] = sf
		if rec.Path == "" {
			continue // the shard never checkpointed, or its first record tore
		}
		st, err := readShardState(i, rec)
		if err != nil {
			return err
		}
		if diskShards == 0 {
			diskShards = st.manifest.Shards
		} else if st.manifest.Shards != diskShards {
			return fmt.Errorf("dispatch: state files disagree on the shard count (%d vs %d)", diskShards, st.manifest.Shards)
		}
		states[i] = st
		last = i
	}
	if last >= diskShards { // with no record, last is -1 and diskShards 0
		return fmt.Errorf("dispatch: state file for shard %d exceeds the persisted shard count %d", last, diskShards)
	}
	if diskShards == 0 || diskShards == len(d.leases) {
		for i, st := range states {
			d.leases[i] = lease{epoch: st.epoch, round: st.manifest.Round, checkpoint: st.bundle}
		}
		files, err := d.openFiles(len(d.leases))
		if err != nil {
			return err
		}
		// Files past the count hold no record (last < diskShards), only what
		// an empty or torn first write left.
		if err := d.removeFilesPast(len(d.leases)); err != nil {
			return err
		}
		d.files = files
		return nil
	}
	// Shard-count change across a restart: a partial set cannot be resharded
	// (a missing shard's tenants would silently vanish), so every old shard
	// must hold a record, all at one common round.
	old := make([][]byte, diskShards)
	var round, maxEpoch int64
	for i := 0; i < diskShards; i++ {
		st, ok := states[i]
		if !ok {
			return fmt.Errorf("dispatch: resizing %d persisted shards to %d needs the full set; shard %d state is missing", diskShards, len(d.leases), i)
		}
		if i == 0 {
			round = st.manifest.Round
		} else if st.manifest.Round != round {
			return fmt.Errorf("dispatch: resizing persisted state: shard rounds diverge (shard 0 at %d, shard %d at %d)", round, i, st.manifest.Round)
		}
		if st.epoch > maxEpoch {
			maxEpoch = st.epoch
		}
		old[i] = st.bundle
	}
	newData, _, err := reshardBundles(old, len(d.leases))
	if err != nil {
		return fmt.Errorf("dispatch: resizing %d persisted shards to %d: %w", diskShards, len(d.leases), err)
	}
	for i := range d.leases {
		d.leases[i] = lease{epoch: maxEpoch + 1, round: round, checkpoint: newData[i]}
	}
	files, err := d.rewriteState(d.leases)
	if err != nil {
		return err
	}
	d.files = files
	return nil
}

// scanStateDir lists the shards that have slot files in the state
// directory, in increasing order (empty when the directory is absent or
// holds none). A state dir holding files of an earlier version is refused,
// naming the file and its schema: their checkpoints are in a format this
// version no longer reads, and booting empty beside them would silently drop
// every tenant they hold.
func (d *Dispatcher) scanStateDir() ([]int, error) {
	entries, err := os.ReadDir(d.cfg.StateDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dispatch: scanning state dir: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		for _, old := range [...]struct{ suffix, schema string }{{".json", v1Schema}, {".state", v2Schema}} {
			if _, ok := shardFileIndex(e.Name(), old.suffix); ok {
				return nil, fmt.Errorf("dispatch: state dir %s holds %s, an %s file this version cannot read (it reads %s); move it aside to boot fresh",
					d.cfg.StateDir, e.Name(), old.schema, stateSchema)
			}
		}
		for _, suffix := range slotSuffixes {
			if i, ok := shardFileIndex(e.Name(), suffix); ok {
				idxs = append(idxs, i)
			}
		}
	}
	sort.Ints(idxs)
	return slices.Compact(idxs), nil
}

// shardFileIndex parses a state dir entry named shard-NNNN<suffix>, the
// index written in four or more digits as the dispatcher writes it. Any
// other name is not a file of that kind.
func shardFileIndex(name, suffix string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "shard-")
	if !ok {
		return 0, false
	}
	num, ok := strings.CutSuffix(rest, suffix)
	if !ok {
		return 0, false
	}
	i, err := strconv.Atoi(num)
	if err != nil || i < 0 || name != fmt.Sprintf("shard-%04d%s", i, suffix) {
		return 0, false
	}
	return i, true
}

// readShardState validates shard i's newest record: the header, and the
// bundle through the same fold a push goes through (folding a folded bundle
// reproduces it), so a corrupt record is refused at boot, naming its slot
// file, rather than at the next grant.
func readShardState(i int, rec atomicio.Record) (*shardState, error) {
	data := rec.Data
	if len(data) < len(stateHeader)+8 || string(data[:len(stateHeader)]) != string(stateHeader) {
		return nil, fmt.Errorf("dispatch: %s does not hold an %s record", rec.Path, stateSchema)
	}
	epoch := int64(binary.LittleEndian.Uint64(data[len(stateHeader):]))
	if epoch < 0 {
		return nil, fmt.Errorf("dispatch: %s has negative lease epoch %d", rec.Path, epoch)
	}
	bundle, m, _, err := serve.FoldBundle(data[len(stateHeader)+8:], nil)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", rec.Path, err)
	}
	if m.Shard != i {
		return nil, fmt.Errorf("dispatch: %s holds shard %d's checkpoint", rec.Path, m.Shard)
	}
	return &shardState{epoch: epoch, bundle: bundle, manifest: m}, nil
}
