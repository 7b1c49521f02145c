package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"rrsched/internal/ckptstore"
	"rrsched/internal/model"
	"rrsched/internal/obs"
	"rrsched/internal/stream"
)

// errShardClosed marks operations against a hosted shard this worker does not
// currently hold a lease for; Tick skips such shards, submit handlers map it
// to 421.
var errShardClosed = errors.New("shard is not hosted on this worker")

// tenant is one tenant's scheduling state inside a shard. All fields are
// owned by the shard goroutine.
type tenant struct {
	name string
	// epoch is the global round of the tenant's first scheduled round: the
	// tenant's scheduler runs on local rounds (global - epoch), so a tenant
	// appearing late does not pay a catch-up walk from global round 0.
	epoch int64
	sched *stream.Scheduler
	// queued holds accepted jobs awaiting the next round tick. Arrival is
	// stamped at push time.
	queued []model.Job
	// maxID is the highest job ID accepted so far (-1 before the first).
	// Submissions must exceed it, which rejects duplicates in O(1).
	maxID int64
	// delays mirrors the per-color delay bounds registered so far, so an
	// inconsistent submission is rejected at admission instead of poisoning
	// a round's Push.
	delays map[model.Color]int64
	// inflight tracks color and local arrival round of jobs pushed into the
	// scheduler and not yet executed or dropped — the metadata the metrics
	// layer needs when a decision only carries job IDs.
	inflight map[int64]jobMeta
	// class indexes the tenant's QoS class in the shard's class table. A
	// tenant binds its class on first submit and keeps it for life (including
	// across checkpoints and migrations).
	class int
	// dirty marks state changes since the tenant's last chunk write: admitted
	// jobs, pushed jobs, or a non-trivial decision. Clean tenants are skipped
	// by dirty cuts (their chunk is re-referenced) and are eligible for
	// eviction. Trivial decisions on an idle tenant do NOT dirty it — the
	// restore path reconstructs them exactly by fast-forwarding.
	dirty bool
	// lastActive is the global round after the tenant last did anything
	// (admission or a non-empty push/decision); eviction triggers on
	// round - lastActive.
	lastActive int64
	// chunk is the content address of the chunk holding the tenant's last
	// cut state (zero before the tenant's first cut).
	chunk uint64
}

type jobMeta struct {
	Color   model.Color
	Arrival int64 // local round
}

// shardMetrics bundles the per-shard instrument handles: the standard
// scheduler vocabulary plus the serve-specific ingest instruments.
type shardMetrics struct {
	reg  *obs.Registry
	sm   *obs.SchedulerMetrics
	wire *obs.WireMetrics
	ckm  *obs.CkptMetrics

	accepted *obs.Counter // jobs admitted
	rejected *obs.Counter // jobs refused with 429 (watermark)
	refused  *obs.Counter // jobs refused with 400/503 (invalid, draining)
	backlog  *obs.Gauge   // queued jobs awaiting the next tick
	tenants  *obs.Gauge   // live tenants on this shard
	tickNs   *obs.Histogram
	submitNs *obs.Histogram

	classAccepted *obs.CounterVec // jobs admitted, by tenant class
	classRejected *obs.CounterVec // jobs 429-rejected, by tenant class
}

// Serve-specific metric names (the scheduler vocabulary lives in obs).
const (
	MetricAccepted = "serve_accepted_jobs_total"
	MetricRejected = "serve_rejected_jobs_total"
	MetricRefused  = "serve_refused_jobs_total"
	MetricBacklog  = "serve_backlog_jobs"
	MetricTenants  = "serve_tenants"
	MetricTickNs   = "serve_tick_ns"
	MetricSubmitNs = "serve_submit_ns"

	MetricClassAccepted = "serve_class_accepted_jobs_total"
	MetricClassRejected = "serve_class_rejected_jobs_total"
)

func newShardMetrics() (*shardMetrics, error) {
	m := &shardMetrics{reg: obs.NewRegistry()}
	var err error
	if m.sm, err = obs.NewSchedulerMetrics(m.reg); err != nil {
		return nil, err
	}
	if m.wire, err = obs.NewWireMetrics(m.reg); err != nil {
		return nil, err
	}
	if m.ckm, err = obs.NewCkptMetrics(m.reg); err != nil {
		return nil, err
	}
	if m.accepted, err = m.reg.Counter(MetricAccepted); err != nil {
		return nil, err
	}
	if m.rejected, err = m.reg.Counter(MetricRejected); err != nil {
		return nil, err
	}
	if m.refused, err = m.reg.Counter(MetricRefused); err != nil {
		return nil, err
	}
	if m.backlog, err = m.reg.Gauge(MetricBacklog); err != nil {
		return nil, err
	}
	if m.tenants, err = m.reg.Gauge(MetricTenants); err != nil {
		return nil, err
	}
	// 1 µs to ~17 s in powers of four: round ticks batch many pushes.
	if m.tickNs, err = m.reg.Histogram(MetricTickNs, obs.ExpBuckets(1024, 4, 13)); err != nil {
		return nil, err
	}
	// 256 ns to ~1 s: per-batch admission work.
	if m.submitNs, err = m.reg.Histogram(MetricSubmitNs, obs.ExpBuckets(256, 4, 12)); err != nil {
		return nil, err
	}
	if m.classAccepted, err = m.reg.CounterVec(MetricClassAccepted, "class"); err != nil {
		return nil, err
	}
	if m.classRejected, err = m.reg.CounterVec(MetricClassRejected, "class"); err != nil {
		return nil, err
	}
	return m, nil
}

// shard owns a subset of tenants. A single goroutine (run) serializes every
// state mutation — submissions, round ticks, checkpoints — so scheduling
// decisions are reproducible no matter how requests interleave on the wire.
type shard struct {
	idx int
	cfg Config
	ch  chan shardCmd
	wg  sync.WaitGroup

	met *shardMetrics

	// Everything below is owned by the shard goroutine.
	// open is whether the shard accepts work. Always true in a classic
	// service; in hosted mode (Config.Hosted) a shard is closed until the
	// worker daemon receives a lease for it and calls OpenShard.
	open     bool
	round    int64 // next round to tick
	tenants  map[string]*tenant
	order    []string // sorted tenant names: the deterministic visit order
	backlog  int      // total queued jobs across tenants
	inflight int      // jobs pushed into schedulers and not yet resolved
	// epoch is the placement epoch this shard is serving under. A submit
	// routed under a different epoch bounces (statusWrongPlacement) so the
	// handler re-resolves against the current placement — the fence that
	// makes the routing flip atomic from the shard's point of view.
	epoch int64
	// nshards is the ring size of the current placement, written into
	// checkpoints (a reshard changes it without restarting the process).
	nshards int
	// Tenant-class state: the normalized class table, name→index, the
	// per-class watermark share, and the per-class queued-job count.
	classes      []TenantClass
	classIdx     map[string]int
	classShare   []int
	classBacklog []int

	// Incremental checkpoint state. store is the durable on-disk chunk store
	// (classic service with a StateDir); pool and acked implement the hosted
	// bundle protocol (bundle.go): the open shard's in-memory chunks and the
	// chunks the receiver last acknowledged. A recording classic shard
	// without a store keeps its log segments in a pool of its own. declog is
	// the shard's decision log when the service records (history.go); an
	// append failure is stashed in declogErr and surfaced at the next cut or
	// decisions read. evicted holds stubs for cold tenants paged out to the
	// chunk store; dirtyCount counts resident tenants with dirty set.
	store      *ckptstore.Store
	declog     *ckptstore.DecLog
	declogErr  error
	evicted    map[string]evictedStub
	dirtyCount int
	pool       *ckptstore.MemStore
	acked      map[uint64]bool
}

// statusWrongPlacement is the internal submitResult status for a command
// routed under a stale placement epoch. Never surfaces on the wire: the HTTP
// handler reloads the placement and resends.
const statusWrongPlacement = -1

// shardCmd is the message type of the shard goroutine. Exactly one of the
// fields is set.
type shardCmd struct {
	submit    *submitCmd
	tick      *tickCmd
	selfTick  *selfTickCmd
	sync      *syncCmd
	openShard *openCmd
	close     *closeCmd
	stats     *statsCmd
	decisions *decisionsCmd
	place     *placeCmd
	plan      *planCmd
	remove    *removeCmd
	inject    *injectCmd
	cut       *cutCmd
}

type submitCmd struct {
	req *SubmitRequest
	// epoch is the placement epoch the HTTP handler routed under; the shard
	// bounces the command when it disagrees with its own epoch.
	epoch int64
	reply chan submitResult
}

type submitResult struct {
	status  int // http status: 200, 429, or 400
	err     string
	round   int64
	backlog int
}

type tickCmd struct {
	round int64
	done  *sync.WaitGroup
}

// selfTickCmd advances a hosted shard n rounds from its own round counter
// (hosted shards tick independently: a restored shard resumes at its
// checkpoint round regardless of its new host's other shards). After the last
// round the shard cuts itself and invokes Config.OnShardCheckpoint, so
// when the tick call returns the caller knows the latest state has been
// offered to the checkpoint store.
type selfTickCmd struct {
	n     int
	reply chan selfTickResult
}

type selfTickResult struct {
	round int64 // next round after ticking
	err   error
}

// syncCmd re-offers a hosted shard's current state to Config.OnShardCheckpoint
// without ticking. It exists for the failure window where a tick advanced the
// shard but the hook's push was lost: a placement-following driver that finds
// the checkpoint store behind the shard uses sync to close the gap before
// counting the round as durable.
type syncCmd struct {
	reply chan selfTickResult
}

// openCmd opens a hosted shard, restoring from a checkpoint bundle when data
// is non-empty.
type openCmd struct {
	data  []byte
	reply chan openResult
}

type openResult struct {
	round int64
	err   error
}

// closeCmd cuts a hosted shard into a self-contained bundle, drops its state,
// and marks it closed.
type closeCmd struct {
	reply chan closeResult
}

type closeResult struct {
	data []byte
	err  error
}

type statsCmd struct {
	reply chan ShardStats
}

type decisionsCmd struct {
	tenant string
	epoch  int64
	reply  chan decisionsResult
}

// placeCmd fences the shard onto a placement epoch: submissions routed under
// any other epoch bounce until the reshard flips routing (or rolls back).
type placeCmd struct {
	epoch   int64
	nshards int
	reply   chan struct{}
}

// planCmd asks the shard to cut every tenant the target ring routes
// elsewhere (its movers) into manifest references, without removing them
// yet; the chunks the references need and the movers' log records go to
// pool.
type planCmd struct {
	ring  hashRing
	pool  *reshardPool
	reply chan planResult
}

type planResult struct {
	refs []ckptstore.TenantRef
	log  []string // the movers' decision-log segments, in the pool
	err  error
}

// removeCmd drops the named tenants from the shard (their state has been
// handed to their new shard).
type removeCmd struct {
	tenants []string
	reply   chan struct{}
}

// injectCmd adopts the movers a reshard routed to this shard: m is this
// shard's manifest of the ReshardManifests output, read through pool.
type injectCmd struct {
	m     *ckptstore.Manifest
	ring  hashRing
	pool  *reshardPool
	reply chan error
}

type decisionsResult struct {
	status int
	err    string
	resp   *DecisionsResponse
}

// newShard builds shard idx over store (nil without a state dir). A classic
// shard of a recording service starts with an empty decision log; a hosted
// shard gets its log when it opens.
func newShard(idx int, cfg Config, store *ckptstore.Store) (*shard, error) {
	met, err := newShardMetrics()
	if err != nil {
		return nil, err
	}
	classes := normalizeClasses(cfg.Classes)
	classIdx := make(map[string]int, len(classes))
	for i, c := range classes {
		classIdx[c.Name] = i
	}
	sh := &shard{
		idx: idx,
		cfg: cfg,
		ch:  make(chan shardCmd, 64),
		met: met,
		// Hosted shards stay closed until a lease arrives (OpenShard).
		open:         !cfg.Hosted,
		tenants:      map[string]*tenant{},
		evicted:      map[string]evictedStub{},
		nshards:      cfg.Shards,
		classes:      classes,
		classIdx:     classIdx,
		classShare:   classShares(classes, cfg.Watermark),
		classBacklog: make([]int, len(classes)),
		store:        store,
	}
	if !cfg.Hosted {
		if err := sh.openLog(nil); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// start launches the shard goroutine.
func (sh *shard) start() {
	sh.wg.Add(1)
	go sh.run()
}

// stop closes the command channel and waits for the goroutine to exit. The
// caller guarantees no further sends (the service only stops shards after the
// HTTP server has shut down and the ticker has stopped).
func (sh *shard) stop() {
	close(sh.ch)
	sh.wg.Wait()
}

// run is the shard goroutine: one blocking receive per wakeup, then a
// non-blocking drain of everything already queued. Coalescing matters under
// concurrent ingest: a burst of submissions costs one goroutine wakeup
// instead of one scheduler round trip per request, and the drained batch
// size is recorded so the amortization is observable. Handling order is
// channel order either way, so determinism is untouched.
func (sh *shard) run() {
	defer sh.wg.Done()
	for {
		cmd, ok := <-sh.ch
		if !ok {
			return
		}
		batch := int64(1)
		sh.handleCmd(cmd)
		for drained := false; !drained; {
			select {
			case cmd, ok := <-sh.ch:
				if !ok {
					sh.met.wire.Coalesced.Observe(batch)
					return
				}
				sh.handleCmd(cmd)
				batch++
			default:
				drained = true
			}
		}
		sh.met.wire.Coalesced.Observe(batch)
	}
}

// handleCmd dispatches one shard command. Exactly one field of cmd is set.
func (sh *shard) handleCmd(cmd shardCmd) {
	switch {
	case cmd.submit != nil:
		t0 := obs.Now()
		cmd.submit.reply <- sh.handleSubmit(cmd.submit.req, cmd.submit.epoch)
		sh.met.submitNs.Observe(obs.Now() - t0)
	case cmd.tick != nil:
		t0 := obs.Now()
		sh.handleTick(cmd.tick.round)
		sh.met.tickNs.Observe(obs.Now() - t0)
		cmd.tick.done.Done()
	case cmd.selfTick != nil:
		t0 := obs.Now()
		cmd.selfTick.reply <- sh.handleSelfTick(cmd.selfTick.n)
		sh.met.tickNs.Observe(obs.Now() - t0)
	case cmd.sync != nil:
		cmd.sync.reply <- sh.handleSync()
	case cmd.openShard != nil:
		cmd.openShard.reply <- sh.handleOpen(cmd.openShard.data)
	case cmd.close != nil:
		cmd.close.reply <- sh.handleClose()
	case cmd.stats != nil:
		cmd.stats.reply <- sh.stats()
	case cmd.decisions != nil:
		cmd.decisions.reply <- sh.handleDecisions(cmd.decisions.tenant, cmd.decisions.epoch)
	case cmd.place != nil:
		sh.epoch = cmd.place.epoch
		sh.nshards = cmd.place.nshards
		cmd.place.reply <- struct{}{}
	case cmd.plan != nil:
		cmd.plan.reply <- sh.handlePlan(cmd.plan)
	case cmd.remove != nil:
		sh.handleRemove(cmd.remove.tenants)
		cmd.remove.reply <- struct{}{}
	case cmd.inject != nil:
		cmd.inject.reply <- sh.adoptMovers(cmd.inject)
	case cmd.cut != nil:
		cmd.cut.reply <- sh.handleCut()
	}
}

// handleSelfTick ticks a hosted shard n rounds from its own counter and then
// offers a fresh checkpoint to Config.OnShardCheckpoint. A hook failure does
// not roll the rounds back — the decisions are made — but it is surfaced so
// the caller knows the store may be behind the shard; handleSync closes that
// gap without ticking further.
func (sh *shard) handleSelfTick(n int) selfTickResult {
	if !sh.open {
		return selfTickResult{round: sh.round, err: fmt.Errorf("serve: shard %d: %w", sh.idx, errShardClosed)}
	}
	for i := 0; i < n; i++ {
		sh.handleTick(sh.round)
	}
	if err := sh.offerCheckpoint(); err != nil {
		return selfTickResult{round: sh.round, err: err}
	}
	return selfTickResult{round: sh.round}
}

// handleSync re-offers the shard's current state to Config.OnShardCheckpoint
// at its current round, without ticking. No-op (but still a success, echoing
// the round) when no hook is configured.
func (sh *shard) handleSync() selfTickResult {
	if !sh.open {
		return selfTickResult{round: sh.round, err: fmt.Errorf("serve: shard %d: %w", sh.idx, errShardClosed)}
	}
	if err := sh.offerCheckpoint(); err != nil {
		return selfTickResult{round: sh.round, err: err}
	}
	return selfTickResult{round: sh.round}
}

// handleOpen opens a hosted shard, restoring from a checkpoint bundle when
// data is non-empty. An empty checkpoint opens the shard fresh at round 0.
// The receiver has acknowledged nothing this shard cuts from here on, so the
// first push after an open carries every chunk.
func (sh *shard) handleOpen(data []byte) openResult {
	if sh.open {
		return openResult{round: sh.round, err: fmt.Errorf("serve: shard %d is already open", sh.idx)}
	}
	sh.pool = ckptstore.NewMemStore()
	sh.acked = map[uint64]bool{}
	var err error
	if len(data) > 0 {
		err = sh.restoreBundle(data)
	} else {
		err = sh.openLog(nil)
	}
	if err != nil {
		sh.clear()
		return openResult{err: err}
	}
	sh.open = true
	return openResult{round: sh.round}
}

// handleClose cuts the shard into a self-contained bundle, drops its state,
// and marks it closed. The bundle is the shard's final checkpoint — the
// handoff artifact a worker uploads when a lease is revoked gracefully.
func (sh *shard) handleClose() closeResult {
	if !sh.open {
		return closeResult{err: fmt.Errorf("serve: shard %d is not open", sh.idx)}
	}
	data, _, err := sh.buildBundle(nil)
	if err != nil {
		return closeResult{err: err}
	}
	sh.clear()
	return closeResult{data: data}
}

// clear resets the shard's goroutine-owned state to closed-and-empty. The
// cumulative counters survive (they describe this process's history); the
// level gauges drop to zero because the state they measured is gone.
func (sh *shard) clear() {
	sh.open = false
	sh.round = 0
	sh.tenants = map[string]*tenant{}
	sh.order = nil
	sh.backlog = 0
	sh.inflight = 0
	sh.classBacklog = make([]int, len(sh.classes))
	sh.evicted = map[string]evictedStub{}
	sh.dirtyCount = 0
	sh.pool = nil
	sh.acked = nil
	sh.declog, sh.declogErr = nil, nil
	sh.met.tenants.Set(0)
	sh.met.backlog.Set(0)
	sh.met.sm.QueueDepth.Set(0)
	sh.met.ckm.DirtyTenants.Set(0)
	sh.setPagingGauges()
}

// handleSubmit admits or rejects one batch. Admission is all-or-nothing:
// every job is validated against the tenant's registered state before any is
// queued. epoch is the placement epoch the handler routed under; a mismatch
// bounces the command back for re-routing instead of admitting under a stale
// placement.
func (sh *shard) handleSubmit(req *SubmitRequest, epoch int64) submitResult {
	n := len(req.Jobs)
	if epoch != sh.epoch {
		// Routed under a placement this shard no longer (or does not yet)
		// serve. Not an error and not counted as refused work: the handler
		// re-resolves and resends.
		return submitResult{status: statusWrongPlacement, round: sh.round, backlog: sh.backlog}
	}
	if !sh.open {
		// Hosted mode: this worker does not hold the shard's lease. 421 tells
		// the client to refresh placement and resend elsewhere.
		sh.met.refused.Add(int64(n))
		return submitResult{
			status:  http.StatusMisdirectedRequest,
			err:     fmt.Sprintf("shard %d is not hosted on this worker (stale placement?)", sh.idx),
			round:   sh.round,
			backlog: sh.backlog,
		}
	}
	tn := sh.tenants[req.Tenant]
	if tn == nil && len(sh.evicted) > 0 {
		var err error
		if tn, err = sh.faultIn(req.Tenant); err != nil {
			sh.met.refused.Add(int64(n))
			return submitResult{
				status:  http.StatusInternalServerError,
				err:     fmt.Sprintf("faulting in tenant %q: %v", req.Tenant, err),
				round:   sh.round,
				backlog: sh.backlog,
			}
		}
	}
	// Resolve the batch's tenant class before any admission decision, so an
	// unknown or conflicting class is a 400 regardless of backlog pressure.
	class, ok := sh.resolveClass(tn, req.Class)
	if !ok {
		sh.met.refused.Add(int64(n))
		return submitResult{
			status:  http.StatusBadRequest,
			err:     fmt.Sprintf("tenant %q names unknown class %q", req.Tenant, req.Class),
			round:   sh.round,
			backlog: sh.backlog,
		}
	}
	if tn != nil && req.Class != "" && tn.class != class {
		sh.met.refused.Add(int64(n))
		return submitResult{
			status:  http.StatusBadRequest,
			err:     fmt.Sprintf("tenant %q is bound to class %q, batch says %q", req.Tenant, sh.classes[tn.class].Name, req.Class),
			round:   sh.round,
			backlog: sh.backlog,
		}
	}
	if tn != nil {
		class = tn.class
	}
	if sh.backlog+n > sh.cfg.Watermark {
		sh.met.rejected.Add(int64(n))
		sh.met.classRejected.With(sh.classes[class].Name).Add(int64(n))
		return submitResult{
			status:  http.StatusTooManyRequests,
			err:     fmt.Sprintf("shard %d backlog %d + batch %d exceeds watermark %d", sh.idx, sh.backlog, n, sh.cfg.Watermark),
			round:   sh.round,
			backlog: sh.backlog,
		}
	}
	if sh.classBacklog[class]+n > sh.classShare[class] {
		// Per-class admission watermark: the shard watermark split by class
		// weight. With the implicit single default class the share equals the
		// watermark, so this check only bites under configured classes.
		sh.met.rejected.Add(int64(n))
		sh.met.classRejected.With(sh.classes[class].Name).Add(int64(n))
		return submitResult{
			status:  http.StatusTooManyRequests,
			err:     fmt.Sprintf("shard %d class %q backlog %d + batch %d exceeds class share %d", sh.idx, sh.classes[class].Name, sh.classBacklog[class], n, sh.classShare[class]),
			round:   sh.round,
			backlog: sh.backlog,
		}
	}
	maxID := int64(-1)
	var delays map[model.Color]int64
	if tn != nil {
		maxID = tn.maxID
		delays = tn.delays
	}
	if req.Jobs[n-1].ID <= maxID {
		// Every ID in the batch is at or below the high-water mark. Because
		// admission is all-or-nothing and IDs increase strictly, a resend of a
		// previously accepted batch lands here in full — report it as a
		// duplicate (409) so retrying clients can treat the batch as admitted.
		// This is what makes resends after an ambiguous transport failure safe.
		//
		// The contract is that a resend is the original batch, byte for byte:
		// the high-water mark proves every ID in it was admitted, not that the
		// batch's payloads match what landed, so a client that re-chunks jobs
		// into different batch boundaries after a failure is outside the
		// contract (serve.Client and the dispatch driver always resend
		// verbatim). The delay-bound check below is the cheap part of content
		// verification: a "resend" whose delays contradict the registered
		// bounds is rejected instead of being waved through as admitted.
		for _, j := range req.Jobs {
			if d, ok := delays[model.Color(j.Color)]; ok && d != j.Delay {
				sh.met.refused.Add(int64(n))
				return submitResult{
					status:  http.StatusBadRequest,
					err:     fmt.Sprintf("tenant %q duplicate batch disagrees with admitted state: color %d has delay bound %d, batch says %d", req.Tenant, j.Color, d, j.Delay),
					round:   sh.round,
					backlog: sh.backlog,
				}
			}
		}
		return submitResult{
			status:  http.StatusConflict,
			err:     fmt.Sprintf("tenant %q batch ids %d..%d all at or below high-water id %d (duplicate batch)", req.Tenant, req.Jobs[0].ID, req.Jobs[n-1].ID, maxID),
			round:   sh.round,
			backlog: sh.backlog,
		}
	}
	if req.Jobs[0].ID <= maxID {
		sh.met.refused.Add(int64(n))
		return submitResult{
			status:  http.StatusBadRequest,
			err:     fmt.Sprintf("tenant %q job id %d not above high-water id %d (ids must be strictly increasing)", req.Tenant, req.Jobs[0].ID, maxID),
			round:   sh.round,
			backlog: sh.backlog,
		}
	}
	for _, j := range req.Jobs {
		if d, ok := delays[model.Color(j.Color)]; ok && d != j.Delay {
			sh.met.refused.Add(int64(n))
			return submitResult{
				status:  http.StatusBadRequest,
				err:     fmt.Sprintf("tenant %q color %d has delay bound %d, batch says %d", req.Tenant, j.Color, d, j.Delay),
				round:   sh.round,
				backlog: sh.backlog,
			}
		}
	}
	if tn == nil {
		sched, err := stream.New(stream.Config{Delta: sh.cfg.Delta, Resources: sh.cfg.Resources})
		if err != nil {
			// Unreachable: Config.validate checked the same parameters.
			sh.met.refused.Add(int64(n))
			return submitResult{status: http.StatusInternalServerError, err: err.Error(), round: sh.round, backlog: sh.backlog}
		}
		tn = &tenant{
			name:     req.Tenant,
			epoch:    sh.round,
			sched:    sched,
			maxID:    -1,
			delays:   map[model.Color]int64{},
			inflight: map[int64]jobMeta{},
			class:    class,
		}
		sh.tenants[req.Tenant] = tn
		i := sort.SearchStrings(sh.order, req.Tenant)
		sh.order = append(sh.order, "")
		copy(sh.order[i+1:], sh.order[i:])
		sh.order[i] = req.Tenant
		sh.met.tenants.Set(int64(len(sh.tenants)))
	}
	for _, j := range req.Jobs {
		tn.delays[model.Color(j.Color)] = j.Delay
		// Arrival is stamped at the next tick; see handleTick.
		tn.queued = append(tn.queued, model.Job{ID: j.ID, Color: model.Color(j.Color), Delay: j.Delay})
	}
	tn.maxID = req.Jobs[n-1].ID
	sh.markDirty(tn)
	tn.lastActive = sh.round
	sh.backlog += n
	sh.classBacklog[tn.class] += n
	sh.met.backlog.Set(int64(sh.backlog))
	sh.met.accepted.Add(int64(n))
	sh.met.classAccepted.With(sh.classes[tn.class].Name).Add(int64(n))
	return submitResult{status: http.StatusOK, round: sh.round, backlog: sh.backlog}
}

// resolveClass maps a batch's class name to an index in the shard's class
// table. An empty name selects the existing tenant's bound class, or the
// "default" class for a new tenant.
func (sh *shard) resolveClass(tn *tenant, name string) (int, bool) {
	if name == "" {
		if tn != nil {
			return tn.class, true
		}
		i, ok := sh.classIdx[DefaultClass]
		return i, ok
	}
	i, ok := sh.classIdx[name]
	return i, ok
}

// handleTick advances every tenant one round. Tenants are visited in sorted
// name order and each tenant's queued jobs are pushed sorted by ID, so the
// decision streams are independent of submission interleaving.
func (sh *shard) handleTick(round int64) {
	if round != sh.round {
		// The service ticks all shards in lockstep; a mismatch would be a
		// serve bug, not an input error. Skip rather than corrupt: the next
		// aligned tick resynchronizes.
		return
	}
	for _, name := range sh.order {
		tn := sh.tenants[name]
		local := round - tn.epoch
		jobs := tn.queued
		tn.queued = nil
		for i := range jobs {
			jobs[i].Arrival = local
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		dec, err := tn.sched.Push(local, jobs)
		if err != nil {
			// Unreachable by construction: admission validated every job
			// against the tenant's registered delays and ID high-water mark.
			// Refuse to guess at recovery; count the round as refused work.
			sh.met.refused.Add(int64(len(jobs)))
			sh.backlog -= len(jobs)
			sh.classBacklog[tn.class] -= len(jobs)
			continue
		}
		sh.backlog -= len(jobs)
		sh.classBacklog[tn.class] -= len(jobs)
		sh.inflight += len(jobs)
		for _, j := range jobs {
			tn.inflight[j.ID] = jobMeta{Color: j.Color, Arrival: local}
		}
		sh.observeDecision(tn, dec)
		if len(jobs) > 0 || len(dec.Reconfigs)+len(dec.Executions)+len(dec.Dropped) > 0 {
			// Pushed jobs or a non-trivial decision changed scheduler state; a
			// trivial decision on an idle tenant did not (the restore path
			// fast-forwards through trivial rounds, reconstructing it exactly).
			sh.markDirty(tn)
			tn.lastActive = round + 1
		}
		if sh.cfg.RecordDecisions {
			sh.recordDecision(tn, dec)
		}
	}
	sh.round = round + 1
	sh.met.sm.Rounds.Inc()
	sh.met.backlog.Set(int64(sh.backlog))
	sh.maybeEvict()
}

// observeDecision folds one round's decision into the shard metrics and
// retires the resolved jobs from the inflight table.
func (sh *shard) observeDecision(tn *tenant, dec stream.Decision) {
	sm := sh.met.sm
	if n := len(dec.Reconfigs); n > 0 {
		sm.Reconfigs.Add(int64(n))
		sm.ReconfigCost.Add(int64(n) * sh.cfg.Delta)
	}
	for _, id := range dec.Dropped {
		meta, ok := tn.inflight[id]
		if ok {
			delete(tn.inflight, id)
			sh.inflight--
			sm.Drops.With(meta.Color.String()).Inc()
		}
		sm.Dropped.Inc()
		sm.DropCost.Inc()
	}
	for _, ex := range dec.Executions {
		if meta, ok := tn.inflight[ex.JobID]; ok {
			delete(tn.inflight, ex.JobID)
			sh.inflight--
			sm.PendingAge.Observe(dec.Round - meta.Arrival)
		}
		sm.Executed.Inc()
	}
	sm.QueueDepth.Set(int64(sh.inflight))
}

// stats summarizes the shard for /v1/stats.
func (sh *shard) stats() ShardStats {
	s := ShardStats{
		Shard:    sh.idx,
		Open:     sh.open,
		Round:    sh.round,
		Tenants:  len(sh.tenants),
		Backlog:  sh.backlog,
		Accepted: sh.met.accepted.Value(),
		Rejected: sh.met.rejected.Value(),
		Refused:  sh.met.refused.Value(),
	}
	s.Executed = sh.met.sm.Executed.Value()
	s.Dropped = sh.met.sm.Dropped.Value()
	s.Reconfigs = sh.met.sm.Reconfigs.Value()
	s.ReconfigCost = sh.met.sm.ReconfigCost.Value()
	s.Inflight = sh.inflight
	s.PlacementEpoch = sh.epoch
	s.Evicted = len(sh.evicted)
	s.Dirty = sh.dirtyCount
	s.Classes = make([]ClassStats, len(sh.classes))
	for i, c := range sh.classes {
		s.Classes[i] = ClassStats{
			Name:     c.Name,
			Weight:   c.Weight,
			Share:    sh.classShare[i],
			Backlog:  sh.classBacklog[i],
			Accepted: sh.met.classAccepted.With(c.Name).Value(),
			Rejected: sh.met.classRejected.With(c.Name).Value(),
		}
	}
	return s
}

// ShardStats is one shard's row in the /v1/stats response.
type ShardStats struct {
	Shard int `json:"shard"`
	// Open is whether the shard currently accepts work. Always true in a
	// classic service; in hosted mode it tracks the worker's leases. The
	// totals row leaves it false — count open per-shard rows instead.
	Open         bool  `json:"open"`
	Round        int64 `json:"round"`
	Tenants      int   `json:"tenants"`
	Backlog      int   `json:"backlog"`
	Inflight     int   `json:"inflight"`
	Accepted     int64 `json:"accepted"`
	Rejected     int64 `json:"rejected"`
	Refused      int64 `json:"refused"`
	Executed     int64 `json:"executed"`
	Dropped      int64 `json:"dropped"`
	Reconfigs    int64 `json:"reconfigs"`
	ReconfigCost int64 `json:"reconfig_cost"`
	// Evicted counts cold tenants paged out to the chunk store (Tenants counts
	// residents only); Dirty counts residents changed since their last chunk.
	Evicted int `json:"evicted,omitempty"`
	Dirty   int `json:"dirty,omitempty"`
	// PlacementEpoch is the placement epoch the shard serves under; zero
	// until the first reshard.
	PlacementEpoch int64 `json:"placement_epoch,omitempty"`
	// Classes breaks admission down by tenant class (omitted on the totals
	// row, which aggregates classes service-wide in StatsResponse.Classes).
	Classes []ClassStats `json:"classes,omitempty"`
}

// ClassStats is one tenant class's admission row, per shard and aggregated
// service-wide.
type ClassStats struct {
	Name   string `json:"name"`
	Weight int64  `json:"weight"`
	// Share is the class's slice of the shard watermark (per-shard rows) or
	// the sum of its per-shard slices (the service aggregate).
	Share    int   `json:"share"`
	Backlog  int   `json:"backlog"`
	Accepted int64 `json:"accepted"`
	Rejected int64 `json:"rejected"`
}

// add accumulates o into s for the service-level totals row.
func (s *ShardStats) add(o ShardStats) {
	s.Tenants += o.Tenants
	s.Evicted += o.Evicted
	s.Dirty += o.Dirty
	s.Backlog += o.Backlog
	s.Inflight += o.Inflight
	s.Accepted += o.Accepted
	s.Rejected += o.Rejected
	s.Refused += o.Refused
	s.Executed += o.Executed
	s.Dropped += o.Dropped
	s.Reconfigs += o.Reconfigs
	s.ReconfigCost += o.ReconfigCost
}

// DecisionsSchema versions the /v1/decisions response format.
const DecisionsSchema = "rrserve-decisions/v1"

// DecisionsResponse is the body of GET /v1/decisions?tenant=...: the
// tenant's full recorded decision stream, in tenant-local rounds.
type DecisionsResponse struct {
	Schema string `json:"schema"`
	Tenant string `json:"tenant"`
	Shard  int    `json:"shard"`
	// Epoch is the global round of the tenant's local round 0.
	Epoch int64 `json:"epoch"`
	// Round is the shard's next global round.
	Round int64 `json:"round"`
	// PlacementEpoch is the placement epoch the tenant's shard serves under;
	// zero until the first reshard moves the ring off its boot placement.
	PlacementEpoch int64             `json:"placement_epoch"`
	Decisions      []stream.Decision `json:"decisions"`
}
