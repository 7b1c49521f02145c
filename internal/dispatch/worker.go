package dispatch

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"rrsched/internal/ckptstore"
	"rrsched/internal/obs"
	"rrsched/internal/serve"
)

// Worker is the daemon side of the lease protocol: a hosted serve.Service
// whose shards open and close as the dispatcher grants and revokes leases. It
// registers at startup, heartbeats on the dispatcher's interval, pushes a
// checkpoint of every shard after every tick (via serve's OnShardCheckpoint
// hook, synchronously — when a tick returns, the dispatcher holds the
// post-tick state), and fences itself — closes every shard — once the
// wall-clock time since its last successful heartbeat exceeds the heartbeat
// budget, so a partitioned worker can never serve a shard the dispatcher has
// already failed over (see heartbeatLoop for the timing argument).
type Worker struct {
	name  string
	dc    *Client
	srv   *http.Server
	hswap *handlerSwap
	ln    net.Listener
	addr  string
	logw  io.Writer

	heartbeatEvery time.Duration
	missBudget     int
	now            func() int64 // obs.Now, injectable in tests

	mu          sync.Mutex
	svc         *serve.Service // replaced wholesale on a config-epoch rebuild
	config      ServiceConfig
	configEpoch int64
	epochs      map[int]int64 // shard → lease epoch (held shards only)

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	endOnce  sync.Once
}

// handlerSwap is the indirection that lets a worker rebuild its hosted
// service under a new fleet config without restarting its HTTP listener: the
// server is bound to the swap once, and a reshard replaces the handler behind
// it between requests. The read lock is held for the whole request, so swap
// doubles as a drain barrier: once it returns, no in-flight request is still
// executing against the old handler and the old service can be closed.
type handlerSwap struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.h.ServeHTTP(w, r)
}

func (s *handlerSwap) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// service returns the current hosted service; it is replaced wholesale when
// the dispatcher's config epoch moves.
func (w *Worker) service() *serve.Service {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.svc
}

// cfgEpoch returns the config epoch the current hosted service was built at.
func (w *Worker) cfgEpoch() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.configEpoch
}

// currentConfig returns the service config the current hosted service was
// built from.
func (w *Worker) currentConfig() ServiceConfig {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.config
}

// halt stops the heartbeat loop exactly once, whether via Close or Kill.
func (w *Worker) halt() {
	w.stopOnce.Do(func() {
		close(w.stop)
		<-w.done
	})
}

// StartWorker registers with the dispatcher at dispatcherURL, builds the
// hosted service from the config the dispatcher returns, starts serving the
// rrserve API on listenAddr (port 0 picks a free port), and launches the
// heartbeat loop. logw receives one-line status messages (pass io.Discard to
// silence).
func StartWorker(name, dispatcherURL, listenAddr string, logw io.Writer) (*Worker, error) {
	if err := ValidateWorker(name); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		name:   name,
		dc:     NewClient(dispatcherURL),
		ln:     ln,
		addr:   "http://" + ln.Addr().String(),
		logw:   logw,
		now:    obs.Now,
		epochs: map[int]int64{},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	reg, err := w.dc.Register(name, w.addr)
	if err != nil {
		_ = ln.Close() // constructor failed; listener has served no traffic
		return nil, fmt.Errorf("dispatch: registering worker %q: %w", name, err)
	}
	w.heartbeatEvery = time.Duration(reg.HeartbeatEveryMs) * time.Millisecond
	if w.heartbeatEvery <= 0 {
		_ = ln.Close() // constructor failed; listener has served no traffic
		return nil, fmt.Errorf("dispatch: dispatcher returned heartbeat interval %dms", reg.HeartbeatEveryMs)
	}
	w.missBudget = reg.MissBudget
	if w.missBudget <= 0 {
		w.missBudget = 3
	}
	cfg := reg.Config.serveConfig()
	cfg.OnShardCheckpoint = w.pushCheckpoint
	svc, _, err := serve.New(cfg)
	if err != nil {
		_ = ln.Close() // constructor failed; listener has served no traffic
		return nil, fmt.Errorf("dispatch: building hosted service: %w", err)
	}
	w.svc = svc
	w.config = reg.Config
	w.configEpoch = reg.ConfigEpoch
	w.hswap = &handlerSwap{h: svc.Handler()}
	w.srv = serve.HardenedServer(w.hswap)
	go func() { _ = w.srv.Serve(ln) }() // exits via Close/Kill; error carries no signal then
	go w.heartbeatLoop()
	w.logf("rrworker %s: serving on %s (shards=%d, heartbeat %v, miss budget %d)",
		name, w.addr, reg.Config.Shards, w.heartbeatEvery, w.missBudget)
	return w, nil
}

// Addr returns the worker's serve API base URL.
func (w *Worker) Addr() string { return w.addr }

// Name returns the worker's registered name.
func (w *Worker) Name() string { return w.name }

// Held returns the shards the worker currently holds, in shard order.
func (w *Worker) Held() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	held := make([]int, 0, len(w.epochs))
	for shard := range w.epochs {
		held = append(held, shard)
	}
	sort.Ints(held)
	return held
}

func (w *Worker) logf(format string, args ...any) {
	if w.logw != nil {
		_, _ = fmt.Fprintf(w.logw, format+"\n", args...) // best-effort status output
	}
}

// pushCheckpoint is the serve OnShardCheckpoint hook: upload the fresh
// post-tick state under the shard's lease epoch. A stale-epoch rejection is
// an error — the tick that triggered it must not report success for a shard
// the dispatcher has moved elsewhere.
func (w *Worker) pushCheckpoint(shard int, round int64, data []byte) error {
	w.mu.Lock()
	epoch, held := w.epochs[shard]
	w.mu.Unlock()
	if !held {
		return fmt.Errorf("dispatch: shard %d ticked without a lease", shard)
	}
	return w.dc.PushCheckpoint(&CheckpointPush{Worker: w.name, Shard: shard, Epoch: epoch, Round: round, Data: data})
}

// heartbeatLoop drives the lease protocol: heartbeat every interval, apply
// the grants and revokes in each response, and self-fence once the wall-clock
// time since the last successful heartbeat exceeds the miss budget.
//
// The fence clock is stamped at request *send* time, not response receipt:
// the dispatcher's liveness clock starts when a heartbeat arrives, which is
// never earlier than when this side sent it, so under synchronized clocks the
// worker's fence deadline always fires at or before the dispatcher's sweep
// deadline — and the dispatcher only regrants at a survivor's next heartbeat
// after the sweep, which is the margin between fence and regrant. Each
// request's timeout is capped at the heartbeat interval (and at the time left
// until the fence deadline), so a packet-blackhole partition — where attempts
// hang instead of failing fast — cannot hold the loop past the deadline on
// the transport's 30s default. Elapsed time is read through w.now (obs.Now's
// monotonic clock): fence timing is an availability mechanism, never an input
// to scheduling decisions, and stays off the determinism lint's wall-clock
// list by construction.
func (w *Worker) heartbeatLoop() {
	defer close(w.done)
	t := time.NewTicker(w.heartbeatEvery)
	defer t.Stop()
	fenceAfter := w.heartbeatEvery * time.Duration(w.missBudget)
	lastSuccess := w.now() // registration in StartWorker was the first contact
	fails := 0
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		timeout := w.heartbeatEvery
		if remain := fenceAfter - time.Duration(w.now()-lastSuccess); remain > 0 && remain < timeout {
			timeout = remain
		}
		sent := w.now()
		resp, err := w.dc.Heartbeat(w.heartbeatRequest(), timeout)
		if errors.Is(err, errUnknownWorker) {
			// The dispatcher restarted and lost the registry. Re-register;
			// whatever this worker still holds is reconciled (revoked or
			// re-fenced) on the next heartbeat. Registration renews liveness
			// on the dispatcher, so it resets the fence clock too.
			if reg, rerr := w.dc.Register(w.name, w.addr); rerr == nil {
				w.logf("rrworker %s: re-registered after dispatcher restart", w.name)
				lastSuccess = sent
				fails = 0
				// A restarted dispatcher may have come back with a different
				// fleet shape (or a reset config epoch); rebuild before the
				// next heartbeat claims anything under the wrong shard count.
				if reg.ConfigEpoch != w.cfgEpoch() || reg.Config != w.currentConfig() {
					if err := w.rebuild(reg.Config, reg.ConfigEpoch); err != nil {
						w.logf("rrworker %s: rebuilding after re-register failed: %v", w.name, err)
					}
				}
				continue
			}
			err = fmt.Errorf("dispatch: re-register: %w", err)
		}
		if err != nil {
			fails++
			stale := time.Duration(w.now() - lastSuccess)
			w.logf("rrworker %s: heartbeat failure %d (last success %v ago, fence at %v): %v",
				w.name, fails, stale.Round(time.Millisecond), fenceAfter, err)
			if stale > fenceAfter {
				// Past the deadline the dispatcher sweeps against: drop every
				// lease now. selfFence is a no-op when nothing is held, so
				// staying past the deadline (partition persists) is harmless.
				w.selfFence()
			}
			continue
		}
		lastSuccess = sent
		fails = 0
		w.apply(resp)
	}
}

// heartbeatRequest snapshots the held leases, sorted by shard as the wire
// format requires.
func (w *Worker) heartbeatRequest() *HeartbeatRequest {
	w.mu.Lock()
	defer w.mu.Unlock()
	req := &HeartbeatRequest{Schema: WireSchema, Worker: w.name, ConfigEpoch: w.configEpoch}
	shards := make([]int, 0, len(w.epochs))
	for shard := range w.epochs {
		shards = append(shards, shard)
	}
	sort.Ints(shards)
	for _, shard := range shards {
		req.Held = append(req.Held, LeaseInfo{Shard: shard, Epoch: w.epochs[shard]})
	}
	return req
}

// apply executes one heartbeat response: revokes first (close, push the final
// checkpoint), then grants (record the epoch, open from the checkpoint). A
// response carrying a fresh config instead means the fleet resharded: the
// hosted service is rebuilt from scratch and nothing else in the response
// applies — grants were withheld, and the revokes name shards the rebuild
// already dropped.
func (w *Worker) apply(resp *HeartbeatResponse) {
	if resp.Config != nil && resp.ConfigEpoch != w.cfgEpoch() {
		if err := w.rebuild(*resp.Config, resp.ConfigEpoch); err != nil {
			w.logf("rrworker %s: rebuilding for config epoch %d failed: %v", w.name, resp.ConfigEpoch, err)
		}
		return
	}
	for _, shard := range resp.Revokes {
		w.mu.Lock()
		epoch, held := w.epochs[shard]
		delete(w.epochs, shard)
		w.mu.Unlock()
		if !held {
			// A revoke for a lease this worker never applied: nothing to hand off.
			_, _ = w.service().CloseShard(shard) // discard: no lease, so no final checkpoint to push
			continue
		}
		if w.handBack(shard, epoch) {
			w.logf("rrworker %s: released shard %d", w.name, shard)
		}
	}
	for _, g := range resp.Grants {
		w.mu.Lock()
		w.epochs[g.Shard] = g.Epoch
		w.mu.Unlock()
		round, err := w.service().OpenShard(g.Shard, g.Checkpoint)
		if err != nil {
			w.mu.Lock()
			delete(w.epochs, g.Shard)
			w.mu.Unlock()
			w.logf("rrworker %s: opening shard %d at epoch %d failed: %v", w.name, g.Shard, g.Epoch, err)
			continue
		}
		w.logf("rrworker %s: holding shard %d at round %d (epoch %d)", w.name, g.Shard, round, g.Epoch)
	}
}

// rebuild tears the hosted service down and builds a fresh one from cfg —
// the worker-side half of a fleet reshard. Held state is dropped, not handed
// off: the dispatcher fenced every old lease when it bumped the config epoch
// and already holds the transformed checkpoint set, so a final push would
// only bounce off the fence. The HTTP listener survives; only the handler
// behind it is swapped.
func (w *Worker) rebuild(cfg ServiceConfig, epoch int64) error {
	w.mu.Lock()
	w.epochs = map[int]int64{}
	old := w.svc
	w.mu.Unlock()
	scfg := cfg.serveConfig()
	scfg.OnShardCheckpoint = w.pushCheckpoint
	svc, _, err := serve.New(scfg)
	if err != nil {
		return fmt.Errorf("dispatch: rebuilding hosted service: %w", err)
	}
	// Swap first: it drains every in-flight request off the old handler, so
	// closing the old service afterwards cannot race a request against it.
	w.hswap.swap(svc.Handler())
	old.Close()
	w.mu.Lock()
	w.svc = svc
	w.config = cfg
	w.configEpoch = epoch
	w.mu.Unlock()
	w.logf("rrworker %s: rebuilt for config epoch %d (shards=%d)", w.name, epoch, cfg.Shards)
	return nil
}

// handBack closes a held shard and pushes the close bundle to the dispatcher
// as the final checkpoint under epoch. It reports whether the shard was open.
// A stale-epoch refusal is expected (the dispatcher already moved the lease
// on); other failures are logged, and the dispatcher regrants from its last
// stored checkpoint.
func (w *Worker) handBack(shard int, epoch int64) bool {
	data, err := w.service().CloseShard(shard)
	if err != nil {
		return false // already closed: nothing to hand off
	}
	round, err := closedRound(data)
	if err != nil {
		w.logf("rrworker %s: close checkpoint for shard %d unreadable: %v", w.name, shard, err)
		return true
	}
	final := &CheckpointPush{Worker: w.name, Shard: shard, Epoch: epoch, Round: round, Final: true, Data: data}
	if err := w.dc.PushCheckpoint(final); err != nil && !errors.Is(err, ErrStale) {
		w.logf("rrworker %s: final checkpoint for shard %d failed: %v", w.name, shard, err)
	}
	return true
}

// closedRound reads the round a close handoff was cut at from its bundle's
// manifest: the dispatcher refuses a push whose round disagrees with it.
func closedRound(data []byte) (int64, error) {
	b, err := ckptstore.DecodeBundle(data)
	if err != nil {
		return 0, err
	}
	m, err := ckptstore.DecodeManifest(b.Manifest)
	if err != nil {
		return 0, err
	}
	return m.Round, nil
}

// selfFence closes every held shard without handoff: the dispatcher is
// unreachable, its sweep has (or soon will have) fenced these leases, and a
// partitioned worker serving stale shards is exactly the split brain the
// epoch discipline exists to prevent. State is discarded — the dispatcher's
// stored checkpoints are the source of truth for the failover.
func (w *Worker) selfFence() {
	w.mu.Lock()
	shards := make([]int, 0, len(w.epochs))
	for shard := range w.epochs {
		shards = append(shards, shard)
	}
	w.epochs = map[int]int64{}
	w.mu.Unlock()
	sort.Ints(shards)
	for _, shard := range shards {
		_, _ = w.service().CloseShard(shard) // discard: the dispatcher's checkpoint is authoritative now
	}
	if len(shards) > 0 {
		w.logf("rrworker %s: heartbeat deadline exceeded; fenced shards %v", w.name, shards)
	}
}

// Close shuts the worker down gracefully: stop heartbeating, hand every held
// shard back with a final checkpoint, then stop the HTTP server and the
// service.
func (w *Worker) Close() {
	w.halt()
	w.endOnce.Do(func() {
		w.mu.Lock()
		held := map[int]int64{}
		for shard, epoch := range w.epochs {
			held[shard] = epoch
		}
		w.epochs = map[int]int64{}
		w.mu.Unlock()
		shards := make([]int, 0, len(held))
		for shard := range held {
			shards = append(shards, shard)
		}
		sort.Ints(shards)
		for _, shard := range shards {
			w.handBack(shard, held[shard])
		}
		_ = w.srv.Close() // abrupt: held shards are handed back already
		w.service().Close()
		w.logf("rrworker %s: stopped", w.name)
	})
}

// Kill stops the worker abruptly — no handoff, no final checkpoints — for
// in-process failover tests. The process-level equivalent is SIGKILL.
func (w *Worker) Kill() {
	w.halt()
	w.endOnce.Do(func() {
		_ = w.srv.Close() // abrupt by design
		w.service().Close()
	})
}
