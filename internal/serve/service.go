package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rrsched/internal/atomicio"
	"rrsched/internal/ckptstore"
	"rrsched/internal/obs"
)

// Config parameterizes the service.
type Config struct {
	// Shards is the number of scheduler shards at boot (>= 1). Tenants map to
	// shards by consistent hashing. The count is not fixed for life: Reshard
	// splits or merges the pool under live traffic, and New restores
	// checkpoint sets taken under any prior shard count by re-routing tenants
	// through the current ring.
	Shards int
	// Resources is the per-tenant resource count n (positive multiple of 4),
	// and Delta the reconfiguration cost — the stream.Config of every
	// tenant's scheduler.
	Resources int
	Delta     int64
	// Watermark is the per-shard bound on queued (accepted but not yet
	// scheduled) jobs. A batch that would push the backlog past it is
	// rejected with 429 + Retry-After; the watermark is also the hard memory
	// bound of the ingest queue.
	Watermark int
	// RoundEvery is the real-time duration of one scheduling round. Zero
	// selects virtual-time mode: rounds advance only via POST /v1/tick (or
	// Service.Tick), which is what tests and the CI smoke job use.
	RoundEvery time.Duration
	// RecordDecisions keeps every tenant's decision stream and serves it at
	// /v1/decisions. The stream lives in each shard's decision log: the
	// non-trivial decisions as varint records, sealed into chunks of the
	// shard's chunk store (StateDir's store, or else an in-memory pool) that
	// every checkpoint names, so history survives a restart, a reshard and a
	// hosted shard's move. Meant for determinism testing and debugging: the
	// log grows with every non-trivial decision.
	RecordDecisions bool
	// StateDir is where Checkpoint writes per-shard state and where New looks
	// for a previous incarnation's files to restore. Empty disables
	// durability. Checkpoints are incremental: each tenant's state is one
	// full chunk in a content-addressed chunk store (StateDir/chunks),
	// referenced from small per-shard rrckpt/v4 manifests, so a cut pays
	// bytes only for tenants that changed since the last one; the decision
	// log's segments are chunks in the same store. A state dir this version
	// cannot read refuses to boot, naming the file, rather than start empty
	// beside it: legacy full-state files (shard-*.json), and rrckpt/v1 (JSON
	// payloads), rrckpt/v2 (delta chunks) or rrckpt/v3 (payloads embedding
	// decision histories) manifests.
	StateDir string
	// EvictAfter pages quiescent tenants out of memory: a tenant with no
	// queued or inflight work whose last activity is at least EvictAfter
	// rounds old is serialized into the chunk store and dropped from the
	// shard, then transparently faulted back in on its next submission.
	// Requires StateDir (the chunk store is the backing store); zero
	// disables eviction.
	EvictAfter int64
	// Hosted switches the service into hosted-shard mode, the worker side of
	// the dispatcher/worker tier: shards start closed and are opened and
	// closed per lease (OpenShard/CloseShard), submissions to closed shards
	// get 421, and rounds advance per shard rather than in lockstep — a shard
	// restored from a checkpoint resumes at its own round regardless of what
	// its new host's other shards are doing. StateDir must be empty: hosted
	// checkpoints are ckptstore bundles that travel through
	// OnShardCheckpoint and CloseShard, not local files. With RecordDecisions
	// on, the shard's decision log rides in the same bundles (its segments
	// are chunks the manifest names), so history survives a shard migration.
	Hosted bool
	// OnShardCheckpoint, if set (hosted mode only), is invoked from the shard
	// goroutine after every self-tick with a checkpoint bundle of the shard:
	// its manifest plus the chunks the receiver has not acknowledged yet
	// (see FoldBundle for the receiving side).
	// The worker daemon uses it to push state to the dispatcher's checkpoint
	// store synchronously: when a tick call returns, the dispatcher already
	// holds the post-tick state, so a later crash loses at most the
	// admissions since that tick — which clients resend idempotently.
	OnShardCheckpoint func(shard int, round int64, data []byte) error
	// Classes are the weighted tenant QoS classes. Each class receives a
	// slice of every shard's admission watermark proportional to its weight
	// (share = max(1, Watermark*w/ΣW)), and the same split applies to
	// ReshardBudget. Empty configures the single implicit class "default"
	// with weight 1, whose share is the whole watermark — exactly the
	// pre-class behavior. When classes are configured explicitly, a batch
	// naming no class binds new tenants to the class named "default", which
	// must then be one of the configured classes.
	Classes []TenantClass
	// ReshardBudget caps the chunk bytes one Reshard may write for its
	// movers, split across classes by weight. A clean chunk-backed tenant or
	// an evicted stub moves by reference and costs nothing; any other mover
	// costs the full chunk the reshard writes for it. A reshard whose cut
	// exceeds any class's slice aborts with no tenant changed. Zero means
	// unlimited.
	ReshardBudget int64
}

// TenantClass is one weighted QoS class.
type TenantClass struct {
	Name   string `json:"name"`
	Weight int64  `json:"weight"`
}

// DefaultClass is the class tenants bind to when a submit names no class.
const DefaultClass = "default"

// normalizeClasses resolves the configured class list: empty means the
// single implicit default class with weight 1.
func normalizeClasses(classes []TenantClass) []TenantClass {
	if len(classes) == 0 {
		return []TenantClass{{Name: DefaultClass, Weight: 1}}
	}
	out := make([]TenantClass, len(classes))
	copy(out, classes)
	return out
}

// classShares splits a watermark (or any integer budget) across classes by
// weight: share = max(1, total*w/ΣW). Integer division makes the split
// exactly invariant under scaling every weight by a common factor —
// floor(k·a/(k·b)) == floor(a/b) — the property the metamorphic class tests
// pin.
func classShares(classes []TenantClass, total int) []int {
	var sum int64
	for _, c := range classes {
		sum += c.Weight
	}
	shares := make([]int, len(classes))
	for i, c := range classes {
		sh := int(int64(total) * c.Weight / sum)
		if sh < 1 {
			sh = 1
		}
		shares[i] = sh
	}
	return shares
}

// MaxClassWeight bounds a class weight so share arithmetic cannot overflow.
const MaxClassWeight = 1 << 20

func (cfg Config) validate() error {
	if cfg.Shards <= 0 {
		return fmt.Errorf("serve: need at least one shard, got %d", cfg.Shards)
	}
	if cfg.Shards > MaxShards {
		return fmt.Errorf("serve: %d shards exceeds the maximum %d", cfg.Shards, MaxShards)
	}
	if cfg.Resources <= 0 || cfg.Resources%4 != 0 {
		return fmt.Errorf("serve: resources must be a positive multiple of 4, got %d", cfg.Resources)
	}
	if cfg.Delta <= 0 {
		return fmt.Errorf("serve: non-positive delta %d", cfg.Delta)
	}
	if cfg.Watermark <= 0 {
		return fmt.Errorf("serve: non-positive watermark %d", cfg.Watermark)
	}
	if cfg.RoundEvery < 0 {
		return fmt.Errorf("serve: negative round duration %v", cfg.RoundEvery)
	}
	if cfg.Hosted && cfg.StateDir != "" {
		return fmt.Errorf("serve: hosted mode is incompatible with a state dir (checkpoints travel via OnShardCheckpoint)")
	}
	if cfg.Hosted && cfg.RoundEvery != 0 {
		return fmt.Errorf("serve: hosted mode requires virtual time (rounds advance per shard via /v1/tick)")
	}
	if cfg.OnShardCheckpoint != nil && !cfg.Hosted {
		return fmt.Errorf("serve: OnShardCheckpoint requires hosted mode")
	}
	if cfg.EvictAfter < 0 {
		return fmt.Errorf("serve: negative evict-after %d", cfg.EvictAfter)
	}
	if cfg.EvictAfter > 0 && cfg.StateDir == "" {
		return fmt.Errorf("serve: EvictAfter requires a state dir (evicted tenants page out to the chunk store)")
	}
	if cfg.ReshardBudget < 0 {
		return fmt.Errorf("serve: negative reshard budget %d", cfg.ReshardBudget)
	}
	seen := map[string]bool{}
	for _, c := range cfg.Classes {
		if err := ValidateClass(c.Name); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("serve: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Weight <= 0 || c.Weight > MaxClassWeight {
			return fmt.Errorf("serve: class %q weight %d out of range (1..%d)", c.Name, c.Weight, MaxClassWeight)
		}
	}
	return nil
}

// Service is the sharded scheduling service. Construct with New, expose
// Handler over HTTP, Start the ticker (real-time mode), and shut down in
// order: BeginDrain, then HTTP server shutdown, then Checkpoint, then Close.
type Service struct {
	cfg Config

	// pl is the current placement: epoch, ring, and shard set. Handlers load
	// it atomically per request; Reshard swaps it in one store, which is what
	// makes the routing flip atomic.
	pl atomic.Pointer[placement]
	// gate, when non-nil, parks submissions: a reshard is migrating tenants
	// and new batches wait on the channel until routing has flipped, then
	// replay under the new epoch.
	gate atomic.Pointer[chan struct{}]
	// reshardMu serializes Reshard calls (the park/migrate/flip sequence is
	// not reentrant).
	reshardMu sync.Mutex

	// round is the next global round; shards advance in lockstep under
	// tickMu. Atomic so handlers can read it without joining the tick path.
	round    atomic.Int64
	tickMu   sync.Mutex
	draining atomic.Bool

	tickerStop chan struct{}
	tickerDone chan struct{}
	startOnce  sync.Once
	stopOnce   sync.Once
	closeOnce  sync.Once

	met    *serviceMetrics
	bootNs int64 // obs.Now at construction, for uptime reporting

	// store is the content-addressed chunk store backing incremental
	// checkpoints and cold-tenant paging (nil when StateDir is empty). One
	// store serves every shard: chunks are immutable, so sharing the
	// directory is what makes reshard migration reference-only.
	store *ckptstore.Store
}

// placement is one immutable epoch of the shard↔tenant mapping. A reshard
// builds a new placement and swaps the service's pointer; readers that
// loaded the old one are fenced off by the per-shard epoch check.
type placement struct {
	epoch  int64
	ring   hashRing
	shards []*shard
	// retired holds shards removed by a merge. Their goroutines keep running
	// (an HTTP handler that routed just before the flip may still send them
	// a command, which bounces off the epoch fence) but they hold no tenants
	// and are not ticked; Close stops them with the live shards.
	retired []*shard
}

// Service-level metric names (reshard lifecycle and submission parking).
const (
	MetricReshards       = "serve_reshards_total"
	MetricReshardTenants = "serve_reshard_moved_tenants_total"
	MetricReshardBytes   = "serve_reshard_migration_bytes_total"
	MetricReshardNs      = "serve_reshard_ns"
	MetricParkedBatches  = "serve_parked_batches_total"
)

// serviceMetrics are the instruments that describe the service as a whole
// rather than any one shard; merged into /metrics with the shard registries.
type serviceMetrics struct {
	reg            *obs.Registry
	reshards       *obs.Counter
	reshardTenants *obs.Counter
	reshardBytes   *obs.Counter
	reshardNs      *obs.Histogram
	parked         *obs.Counter
}

func newServiceMetrics() (*serviceMetrics, error) {
	m := &serviceMetrics{reg: obs.NewRegistry()}
	var err error
	if m.reshards, err = m.reg.Counter(MetricReshards); err != nil {
		return nil, err
	}
	if m.reshardTenants, err = m.reg.Counter(MetricReshardTenants); err != nil {
		return nil, err
	}
	if m.reshardBytes, err = m.reg.Counter(MetricReshardBytes); err != nil {
		return nil, err
	}
	// 4 µs to ~70 s in powers of four: a reshard checkpoints and re-routes
	// whole tenant sets.
	if m.reshardNs, err = m.reg.Histogram(MetricReshardNs, obs.ExpBuckets(4096, 4, 13)); err != nil {
		return nil, err
	}
	if m.parked, err = m.reg.Counter(MetricParkedBatches); err != nil {
		return nil, err
	}
	return m, nil
}

// New builds a service. If cfg.StateDir contains checkpoint files from a
// previous incarnation, the full per-tenant state is restored before the
// service accepts traffic; the returned restored count is the number of
// tenants recovered. A checkpoint set taken under a different shard count is
// re-routed through the current ring (the placement epoch is bumped past the
// checkpointed one) rather than refused.
func New(cfg Config) (svc *Service, restored int, err error) {
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	met, err := newServiceMetrics()
	if err != nil {
		return nil, 0, err
	}
	s := &Service{
		cfg:    cfg,
		met:    met,
		bootNs: obs.Now(),
	}
	if cfg.StateDir != "" {
		if s.store, err = ckptstore.Open(filepath.Join(cfg.StateDir, "chunks"), 0); err != nil {
			return nil, 0, err
		}
	}
	pl := &placement{ring: newHashRing(cfg.Shards)}
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(i, cfg, s.store)
		if err != nil {
			return nil, 0, err
		}
		pl.shards = append(pl.shards, sh)
	}
	s.pl.Store(pl)
	if cfg.StateDir != "" {
		restored, err = s.restore(pl)
		if err != nil {
			return nil, 0, err
		}
	}
	for _, sh := range pl.shards {
		sh.start()
	}
	return s, restored, nil
}

// restore loads a previous incarnation's state from cfg.StateDir, if present:
// the incremental manifests (manifest-*.json referencing the chunk store),
// decision logs included.
func (s *Service) restore(pl *placement) (int, error) {
	restored, found, err := s.restoreManifests(pl)
	if err != nil {
		return 0, err
	}
	if !found {
		// Full-state files from before incremental checkpoints are not read
		// any more; booting empty beside one would silently drop every tenant
		// it holds.
		legacy, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "shard-*.json"))
		if err != nil {
			return 0, fmt.Errorf("serve: probing state dir: %w", err)
		}
		if len(legacy) > 0 {
			return 0, fmt.Errorf("serve: state dir holds %s, a legacy full-state checkpoint this version cannot restore; refusing to boot empty beside it", legacy[0])
		}
	}
	return restored, nil
}

// shardManifestPath is one shard's incremental checkpoint manifest.
func (s *Service) shardManifestPath(i int) string {
	return filepath.Join(s.cfg.StateDir, fmt.Sprintf("manifest-%04d.json", i))
}

// Round returns the next global round.
func (s *Service) Round() int64 { return s.round.Load() }

// Draining reports whether BeginDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Virtual reports whether the service runs in virtual-time mode.
func (s *Service) Virtual() bool { return s.cfg.RoundEvery == 0 }

// ShardFor reports which shard the current placement routes a tenant to.
func (s *Service) ShardFor(tenant string) int {
	pl := s.pl.Load()
	return pl.ring.ShardOf(tenant)
}

// Epoch returns the current placement epoch (zero until the first reshard).
func (s *Service) Epoch() int64 { return s.pl.Load().epoch }

// Start launches the real-time round ticker. A no-op in virtual-time mode.
func (s *Service) Start() {
	if s.Virtual() {
		return
	}
	s.startOnce.Do(func() {
		s.tickerStop = make(chan struct{})
		s.tickerDone = make(chan struct{})
		go func() {
			defer close(s.tickerDone)
			t := time.NewTicker(s.cfg.RoundEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// A tick error only means the service began draining
					// between the channel receive and the tick; the loop
					// exits on the next select either way.
					_, _ = s.Tick(1) // drain race only; see comment
				case <-s.tickerStop:
					return
				}
			}
		}()
	})
}

// Tick advances all shards by n rounds and returns the new next round. In a
// classic service shards tick in lockstep (a barrier separates rounds, so
// every shard's round counter stays aligned); in hosted mode every open shard
// advances n rounds from its own counter and the returned round is the
// maximum across open shards.
func (s *Service) Tick(n int) (int64, error) {
	if n <= 0 {
		return s.round.Load(), fmt.Errorf("serve: tick count must be positive, got %d", n)
	}
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	if s.draining.Load() {
		return s.round.Load(), fmt.Errorf("serve: service is draining")
	}
	if s.cfg.Hosted {
		return s.tickHosted(n)
	}
	// Reshard swaps the placement under tickMu, so the shard set is stable
	// for the whole multi-round tick.
	pl := s.pl.Load()
	for i := 0; i < n; i++ {
		r := s.round.Load()
		var wg sync.WaitGroup
		wg.Add(len(pl.shards))
		cmd := &tickCmd{round: r, done: &wg}
		for _, sh := range pl.shards {
			sh.ch <- shardCmd{tick: cmd} //lint:ignore lockcheck tickMu is the round barrier, and shard goroutines drain their channels unconditionally until Close
		}
		wg.Wait()
		s.round.Store(r + 1)
	}
	return s.round.Load(), nil
}

// tickHosted fans a self-tick to every shard concurrently; closed shards
// report themselves and are skipped. Caller holds tickMu.
func (s *Service) tickHosted(n int) (int64, error) {
	shards := s.pl.Load().shards
	replies := make([]chan selfTickResult, len(shards))
	for i, sh := range shards {
		replies[i] = make(chan selfTickResult, 1)
		sh.ch <- shardCmd{selfTick: &selfTickCmd{n: n, reply: replies[i]}}
	}
	maxRound := int64(0)
	ticked := 0
	var firstErr error
	for _, reply := range replies {
		res := <-reply
		switch {
		case res.err == nil:
			ticked++
			if res.round > maxRound {
				maxRound = res.round
			}
		case errors.Is(res.err, errShardClosed):
			// Not hosted here; its owner ticks it.
		case firstErr == nil:
			firstErr = res.err
		}
	}
	if firstErr != nil {
		return maxRound, firstErr
	}
	if ticked == 0 {
		// No leases held: nothing advanced, and storing the zero maxRound
		// would reset the service-wide counter. Tell the caller instead.
		return s.round.Load(), fmt.Errorf("serve: no open shards to tick")
	}
	s.round.Store(maxRound)
	return maxRound, nil
}

// TickShard advances one hosted shard by n rounds from its own round counter.
// It exists so a placement-following driver can realign shards that diverged
// during a failover (the dead worker's shards resume at their checkpoint
// rounds, behind the survivors).
func (s *Service) TickShard(shard, n int) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("serve: tick count must be positive, got %d", n)
	}
	if !s.cfg.Hosted {
		return 0, fmt.Errorf("serve: per-shard ticks require hosted mode")
	}
	pl := s.pl.Load()
	if shard < 0 || shard >= len(pl.shards) {
		return 0, fmt.Errorf("serve: shard %d out of range [0, %d)", shard, len(pl.shards))
	}
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	if s.draining.Load() {
		return 0, fmt.Errorf("serve: service is draining")
	}
	reply := make(chan selfTickResult, 1)
	pl.shards[shard].ch <- shardCmd{selfTick: &selfTickCmd{n: n, reply: reply}} //lint:ignore lockcheck tickMu is the round barrier, and shard goroutines drain their channels unconditionally until Close
	res := <-reply                                                              //lint:ignore lockcheck the shard goroutine always answers a selfTick on the buffered reply channel
	if res.err != nil {
		return res.round, res.err
	}
	if res.round > s.round.Load() {
		s.round.Store(res.round)
	}
	return res.round, nil
}

// SyncShard re-offers a hosted shard's current state to OnShardCheckpoint at
// its current round, without ticking, and returns that round. Drivers call it
// when the dispatcher's checkpoint store lags the shard (a tick whose hook
// push failed): it restores the invariant that a restored shard is never more
// than one round behind the live one.
func (s *Service) SyncShard(shard int) (int64, error) {
	if !s.cfg.Hosted {
		return 0, fmt.Errorf("serve: SyncShard requires hosted mode")
	}
	pl := s.pl.Load()
	if shard < 0 || shard >= len(pl.shards) {
		return 0, fmt.Errorf("serve: shard %d out of range [0, %d)", shard, len(pl.shards))
	}
	reply := make(chan selfTickResult, 1)
	pl.shards[shard].ch <- shardCmd{sync: &syncCmd{reply: reply}}
	res := <-reply
	return res.round, res.err
}

// OpenShard opens a hosted shard, restoring it from a self-contained
// checkpoint bundle (a FoldBundle result or a CloseShard handoff) when data is
// non-empty; empty data opens the shard fresh at round 0. Returns the shard's
// next round. The worker daemon calls this when the dispatcher grants it a
// lease.
func (s *Service) OpenShard(shard int, data []byte) (int64, error) {
	if !s.cfg.Hosted {
		return 0, fmt.Errorf("serve: OpenShard requires hosted mode")
	}
	pl := s.pl.Load()
	if shard < 0 || shard >= len(pl.shards) {
		return 0, fmt.Errorf("serve: shard %d out of range [0, %d)", shard, len(pl.shards))
	}
	reply := make(chan openResult, 1)
	pl.shards[shard].ch <- shardCmd{openShard: &openCmd{data: data, reply: reply}}
	res := <-reply
	return res.round, res.err
}

// CloseShard cuts a hosted shard, drops its state, and marks it closed. The
// returned bytes are the final checkpoint, a self-contained bundle — the
// handoff artifact uploaded to the dispatcher when a lease is revoked
// gracefully.
func (s *Service) CloseShard(shard int) ([]byte, error) {
	if !s.cfg.Hosted {
		return nil, fmt.Errorf("serve: CloseShard requires hosted mode")
	}
	pl := s.pl.Load()
	if shard < 0 || shard >= len(pl.shards) {
		return nil, fmt.Errorf("serve: shard %d out of range [0, %d)", shard, len(pl.shards))
	}
	reply := make(chan closeResult, 1)
	pl.shards[shard].ch <- shardCmd{close: &closeCmd{reply: reply}}
	res := <-reply
	return res.data, res.err
}

// OpenShards reports which shards are currently open, in index order.
func (s *Service) OpenShards() []int {
	st := s.Stats()
	var open []int
	for _, row := range st.PerShard {
		if row.Open {
			open = append(open, row.Shard)
		}
	}
	return open
}

// BeginDrain stops admissions and the round ticker. Idempotent. After it
// returns, no new jobs are accepted (submits get 503), no further rounds
// tick, and any in-flight tick has completed — the service state is frozen
// at a round boundary, ready for Checkpoint.
func (s *Service) BeginDrain() {
	s.draining.Store(true)
	s.stopOnce.Do(func() {
		if s.tickerStop != nil {
			close(s.tickerStop)
			<-s.tickerDone
		}
	})
	// Barrier: an in-flight Tick holds tickMu until its round completes, so
	// acquiring and releasing it guarantees the state rests at a round
	// boundary when BeginDrain returns.
	s.tickMu.Lock()
	s.tickMu.Unlock()
}

// Checkpoint cuts an incremental checkpoint: every shard serializes only its
// dirty tenants into the content-addressed chunk store and commits a small
// manifest (written atomically via rename). Clean tenants reuse their prior
// chunk references and evicted tenants commit as stubs, so a steady-state cut
// costs bytes proportional to what changed, not to the tenant population.
// After the manifests commit, stale manifests and orphan chunks (the
// strandings of any earlier crash) are removed. Safe to call live: the round
// barrier is held for the whole cut, so it lands exactly between rounds.
func (s *Service) Checkpoint() error {
	if s.cfg.StateDir == "" {
		return fmt.Errorf("serve: no state dir configured")
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("serve: creating state dir: %w", err)
	}
	// Hold the round barrier: no tick (and so no tick-time eviction chunk
	// write) can interleave between the manifest commits and the orphan GC.
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	pl := s.pl.Load()
	var roots []uint64
	for i, sh := range pl.shards {
		reply := make(chan cutResult, 1)
		sh.ch <- shardCmd{cut: &cutCmd{reply: reply}} //lint:ignore lockcheck tickMu is the round barrier, and shard goroutines drain their channels unconditionally until Close
		res := <-reply                                //lint:ignore lockcheck the shard goroutine always answers a cut on the buffered reply channel
		if res.err != nil {
			return res.err
		}
		if err := atomicio.WriteFile(s.shardManifestPath(i), res.manifest, 0o644); err != nil {
			return fmt.Errorf("serve: writing shard %d manifest: %w", i, err)
		}
		roots = append(roots, res.roots...)
	}
	// The manifests are committed; remove manifests of shards a merge
	// removed.
	stale, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "manifest-*.json"))
	if err != nil {
		return fmt.Errorf("serve: probing state dir: %w", err)
	}
	for _, f := range stale {
		keep := false
		for i := range pl.shards {
			if f == s.shardManifestPath(i) {
				keep = true
				break
			}
		}
		if !keep {
			if err := os.Remove(f); err != nil {
				return fmt.Errorf("serve: removing stale state file %s: %w", f, err)
			}
		}
	}
	// Orphan GC: chunks the committed manifests do not name can never be
	// read again (a crash between a chunk write and a manifest rename
	// strands exactly such chunks, and so does every superseded log tail).
	if _, err := s.store.GC(roots); err != nil {
		return fmt.Errorf("serve: collecting orphan chunks: %w", err)
	}
	return nil
}

// Close stops the shard goroutines. The caller must guarantee no concurrent
// Handler traffic or Tick calls: Close is the last step of the shutdown
// order (BeginDrain, HTTP shutdown, Checkpoint, Close).
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.stopOnce.Do(func() {
			if s.tickerStop != nil {
				close(s.tickerStop)
				<-s.tickerDone
			}
		})
		pl := s.pl.Load()
		for _, sh := range pl.shards {
			sh.stop()
		}
		for _, sh := range pl.retired {
			sh.stop()
		}
	})
}

// Stats assembles the service-level stats response.
func (s *Service) Stats() *StatsResponse {
	pl := s.pl.Load()
	resp := &StatsResponse{
		Schema:   StatsSchema,
		Round:    s.round.Load(),
		Shards:   len(pl.shards),
		Virtual:  s.Virtual(),
		Draining: s.draining.Load(),
		UptimeNs: obs.Now() - s.bootNs,
		Epoch:    pl.epoch,
		Reshards: s.met.reshards.Value(),
		RSSBytes: obs.RSSBytes(),
	}
	classAgg := map[string]*ClassStats{}
	var classOrder []string
	for _, sh := range pl.shards {
		reply := make(chan ShardStats, 1)
		sh.ch <- shardCmd{stats: &statsCmd{reply: reply}}
		st := <-reply
		resp.PerShard = append(resp.PerShard, st)
		resp.Totals.add(st)
		for _, cs := range st.Classes {
			agg := classAgg[cs.Name]
			if agg == nil {
				agg = &ClassStats{Name: cs.Name, Weight: cs.Weight}
				classAgg[cs.Name] = agg
				classOrder = append(classOrder, cs.Name)
			}
			agg.Share += cs.Share
			agg.Backlog += cs.Backlog
			agg.Accepted += cs.Accepted
			agg.Rejected += cs.Rejected
		}
	}
	for _, name := range classOrder {
		resp.Classes = append(resp.Classes, *classAgg[name])
	}
	resp.Totals.Shard = -1
	resp.Totals.Round = resp.Round
	return resp
}

// MergedMetrics returns the service-level metric snapshot: the per-shard
// registries (live and retired — retired shards carry the pre-merge
// admission history) merged with the service registry.
func (s *Service) MergedMetrics() (*obs.Snapshot, error) {
	pl := s.pl.Load()
	snaps := make([]*obs.Snapshot, 0, len(pl.shards)+len(pl.retired)+1)
	for _, sh := range pl.shards {
		snaps = append(snaps, sh.met.reg.Snapshot())
	}
	for _, sh := range pl.retired {
		snaps = append(snaps, sh.met.reg.Snapshot())
	}
	snaps = append(snaps, s.met.reg.Snapshot())
	return obs.MergeSnapshots(snaps...)
}

// StatsSchema versions the /v1/stats response format.
const StatsSchema = "rrserve-stats/v1"

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Schema   string `json:"schema"`
	Round    int64  `json:"round"`
	Shards   int    `json:"shards"`
	Virtual  bool   `json:"virtual"`
	Draining bool   `json:"draining"`
	UptimeNs int64  `json:"uptime_ns"`
	// Epoch is the current placement epoch (zero until the first reshard)
	// and Reshards the number of reshards this process has performed.
	Epoch    int64 `json:"epoch"`
	Reshards int64 `json:"reshards"`
	// RSSBytes is the process's resident set size when the stats were
	// assembled (0 when the platform does not expose it). It is what the
	// cold-tenant paging work bounds, so it rides the stats response.
	RSSBytes int64 `json:"rss_bytes,omitempty"`

	Totals   ShardStats   `json:"totals"`
	PerShard []ShardStats `json:"per_shard"`
	// Classes aggregates per-class admission across shards (shares summed
	// over shards, so a class's Share is its service-wide queued-job slice).
	Classes []ClassStats `json:"classes,omitempty"`
}
