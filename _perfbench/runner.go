package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rrsched/internal/dispatch"
	"rrsched/internal/obs"
	"rrsched/internal/serve"
)

const (
	// watermark keeps admission far from backpressure: a 429 would be a
	// failed operation, and no workload here is about overload.
	watermark = 1 << 24
	// blockRounds is the length of the blocks the timed window is cut into.
	// Rates are medians over blocks, so a burst of CPU steal from the host
	// spoils a block rather than the run; a traced run alternates blocks
	// with and without spans, so it measures its own overhead. On paging a
	// block is one return period: every tenant visits once and one cut runs.
	blockRounds = 32
	// maxSubmitters is the number of submitter goroutines (at most nproc):
	// fixed, so the load shape does not change with the machine.
	maxSubmitters = 2
)

// runner drives one workload run and collects its figures.
type runner struct {
	spec   *spec
	seed   int64
	window time.Duration
	traced bool
	dir    string
	t0     time.Time
	tr     *tracer // nil unless traced
	in     *inputs
	rep    report
	conns  int

	ops struct{ attempted, failed int64 }

	setupNs []int64
	// gap runs between the timed window's blocks (see spec.gapBoots).
	gap func() error
	// The timed window covers global rounds [timedFrom, timedTo).
	timedFrom, timedTo int64
	wall               time.Duration
	jobs               int64 // accepted in the timed window
	roundNs, submitNs  []int64
	tickNs, cutNs      []int64
	blocks             []block
	steal              float64 // share of machine CPU time stolen by the host in the window

	accepted int64 // accepted over the whole run
	end      int64 // the service's next round after the drain
	peakRSS  int64
	resident int
	// stats0 holds the service's totals when the timed window opens; the
	// objective and the replay check cover the window plus the drain.
	stats0 *serve.StatsResponse

	// Traced runs: probes around the timed window and per-cut counter deltas.
	rt0, rt1      runtimeProbe
	met0, met1    counters
	disp0, disp1  counters
	cutBefore     []counters
	cutAfter      []counters
	fleetStateDir string
}

func newRunner(s *spec, seed int64, seconds int, traced bool, dir string) *runner {
	r := &runner{spec: s, seed: seed, window: time.Duration(seconds) * time.Second, traced: traced, dir: dir, t0: time.Now()}
	r.conns = min(maxSubmitters, runtime.NumCPU())
	if traced {
		r.tr = newTracer(r.t0)
	}
	return r
}

// ns is the run clock: nanoseconds since the runner was built.
func (r *runner) ns() int64 { return int64(time.Since(r.t0)) }

func (r *runner) run() error {
	in, err := r.spec.gen(r.seed)
	if err != nil {
		return err
	}
	r.in = in
	syncDisks()
	rssReset := resetPeakRSS()
	if !rssReset {
		r.rep.na("peak_rss_reset", "", "/proc/self/clear_refs not writable; VmHWM includes input generation")
	}
	if r.spec.fleet {
		err = r.runFleet()
	} else {
		err = r.runServe()
	}
	return err
}

// block is one blockRounds-long slice of the timed window.
type block struct {
	traced      bool
	jobs        int64
	wall, cpuNs int64
}

// timed runs rounds from *g until the window has elapsed and the last block
// is whole (a traced run ends on a traced block), sampling CPU, runtime and
// program counters around the window.
func (r *runner) timed(g *int64, round func(int64) error, snap func() (counters, error)) error {
	runtime.GC()
	syncDisks()
	var err error
	if r.traced {
		if r.met0, err = snap(); err != nil {
			return err
		}
	}
	r.rt0 = readRuntime()
	steal0 := readSteal()
	start := time.Now()
	r.timedFrom = *g
	for {
		b := block{traced: r.traced && len(r.blocks)%2 == 1}
		if r.tr != nil {
			r.tr.on.Store(b.traced)
		}
		w0, c0, j0 := r.ns(), cpuTime(), r.jobs
		for i := 0; i < blockRounds; i++ {
			if err := round(*g); err != nil {
				return err
			}
			*g++
		}
		b.wall, b.cpuNs, b.jobs = r.ns()-w0, int64(cpuTime()-c0), r.jobs-j0
		r.blocks = append(r.blocks, b)
		if time.Since(start) >= r.window && (!r.traced || b.traced) {
			break
		}
		if r.gap != nil {
			if err := r.gap(); err != nil {
				return err
			}
		}
	}
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	r.wall = time.Since(start)
	r.steal = readSteal().since(steal0)
	r.rt1 = readRuntime()
	r.timedTo = *g
	if r.traced {
		if r.met1, err = snap(); err != nil {
			return err
		}
	}
	return nil
}

// call runs one operation, counting it and recording its span when tracing
// is on. A non-empty key lets the handler span find this one as its parent.
func (r *runner) call(on bool, parent, g int64, name string, k callKey, f func() error) error {
	var id, start int64
	if on {
		id = r.tr.id()
		if k.path != "" {
			r.tr.expect(k, id)
		}
		start = r.ns()
	}
	err := f()
	if on {
		r.tr.add(span{ID: id, Parent: parent, Name: name, Round: g, Start: start, End: r.ns()})
	}
	r.ops.attempted++
	if err != nil {
		r.ops.failed++
		return fmt.Errorf("%s in round %d: %w", name, g, err)
	}
	return nil
}

// --- serve workloads ---

type serveStack struct {
	svc    *serve.Service
	ln     *resetListener
	srv    *http.Server
	done   chan struct{}
	client *serve.Client
}

// resetListener is a loopback listener that can make the connections it
// accepted close with a reset rather than sit in TIME_WAIT for a minute. A
// run boots and stops its stack hundreds of times, and thousands of
// TIME_WAIT sockets slow every later connect and listen on the machine: one
// run's boots would slow the boots of the runs after it.
type resetListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*net.TCPConn
}

func (l *resetListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		l.mu.Lock()
		l.conns = append(l.conns, tc)
		l.mu.Unlock()
	}
	return c, err
}

// resetOnClose sets every accepted connection to close with a reset. A
// reset drops unsent data, so call it only with no request in flight.
func (l *resetListener) resetOnClose() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		_ = c.SetLinger(0) // fails harmlessly on a connection already closed
	}
}

func (r *runner) serveConfig() serve.Config {
	cfg := serve.Config{Shards: r.spec.shards, Resources: r.spec.resources, Delta: r.spec.delta, Watermark: watermark}
	if r.spec.stateful {
		cfg.StateDir = filepath.Join(r.dir, "state")
		cfg.EvictAfter = r.spec.evictAfter
		cfg.RecordDecisions = true
	}
	return cfg
}

// bootServe builds the service and serves it on a loopback listener; it
// returns once /healthz answers.
func (r *runner) bootServe(cfg serve.Config) (*serveStack, error) {
	s0 := r.ns()
	svc, _, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if r.tr != nil {
		r.tr.add(span{ID: r.tr.id(), Name: "serve.New", Round: -1, Start: s0, End: r.ns()})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	var h http.Handler = svc.Handler()
	if r.tr != nil {
		h = r.tr.wrap("serve", h)
	}
	st := &serveStack{svc: svc, ln: &resetListener{Listener: ln}, srv: serve.HardenedServer(h), done: make(chan struct{})}
	go func() {
		defer close(st.done)
		_ = st.srv.Serve(st.ln) // returns ErrServerClosed on stop
	}()
	st.client = serve.NewClientWire("http://"+ln.Addr().String(), serve.SingleShot(), serve.WireBinary)
	if err := waitFor(5*time.Second, st.client.Healthy); err != nil {
		return nil, errors.Join(err, st.stop(false))
	}
	return st, nil
}

// stop shuts the stack down in the service's order: drain, HTTP close,
// optional checkpoint, close. The listener closes abruptly, its connections
// with a reset: no request is in flight when a stack stops, and a graceful
// Shutdown would wait out any connection the client's transport dialed but
// never used.
func (st *serveStack) stop(checkpoint bool) error {
	st.svc.BeginDrain()
	st.ln.resetOnClose()
	err := st.srv.Close()
	<-st.done
	if checkpoint && err == nil {
		err = st.svc.Checkpoint()
	}
	st.svc.Close()
	return err
}

// counters reads the merged snapshot /metrics serves, in-process, so that
// probing between calls adds no HTTP request (and no span) to the round.
func (st *serveStack) counters() (counters, error) {
	s, err := st.svc.MergedMetrics()
	if err != nil {
		return nil, err
	}
	return indexSnapshot(s), nil
}

func waitFor(limit time.Duration, ok func() bool) error {
	deadline := time.Now().Add(limit)
	for !ok() {
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (r *runner) runServe() error {
	cfg := r.serveConfig()
	g := int64(0)
	if r.spec.stateful {
		// setup_s on paging is a restart: run the warm-up on a first
		// incarnation, cut and stop it, then time serve.New restoring it.
		st, err := r.bootServe(cfg)
		if err != nil {
			return err
		}
		for ; g < r.spec.warmup; g++ {
			if err := r.serveRound(st, g, false); err != nil {
				return errors.Join(err, st.stop(false))
			}
		}
		if err := st.stop(true); err != nil {
			return err
		}
	}
	if err := r.sampleBoots(cfg, r.spec.setups-1); err != nil {
		return err
	}
	if r.spec.gapBoots > 0 && !r.traced {
		r.gap = func() error { return r.sampleBoots(cfg, r.spec.gapBoots) }
	}
	t0 := time.Now()
	st, err := r.bootServe(cfg)
	if err != nil {
		return err
	}
	r.setupNs = append(r.setupNs, int64(time.Since(t0)))
	err = r.driveServe(st, g)
	return errors.Join(err, st.stop(false))
}

// sampleBoots boots and stops n throwaway stacks, recording each one's time
// from boot to ready.
func (r *runner) sampleBoots(cfg serve.Config, n int) error {
	for k := 0; k < n; k++ {
		t0 := time.Now()
		st, err := r.bootServe(cfg)
		if err != nil {
			return err
		}
		r.setupNs = append(r.setupNs, int64(time.Since(t0)))
		if err := st.stop(false); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) driveServe(st *serveStack, g int64) error {
	for ; g < r.spec.warmup; g++ {
		if err := r.serveRound(st, g, false); err != nil {
			return err
		}
	}
	var err error
	if r.stats0, err = st.client.Stats(); err != nil {
		return err
	}
	if err := r.timed(&g, func(g int64) error { return r.serveRound(st, g, true) }, st.counters); err != nil {
		return err
	}
	stats, err := st.client.Stats()
	if err != nil {
		return err
	}
	r.resident = stats.Totals.Tenants
	drain := int(r.in.maxDelay) + 2
	if err := r.call(false, 0, g, "drain tick", callKey{}, func() error {
		_, err := st.client.Tick(drain)
		return err
	}); err != nil {
		return err
	}
	r.end = g + int64(drain)
	if r.peakRSS, err = peakRSSBytes(); err != nil {
		return err
	}
	if stats, err = st.client.Stats(); err != nil {
		return err
	}
	return r.finish(stats, st, nil)
}

// serveRound runs one closed-loop round: every batch of the round lands,
// then one /v1/tick, then (paging, every cutEvery rounds) one cut.
func (r *runner) serveRound(st *serveStack, g int64, timed bool) error {
	on := r.tr != nil && r.tr.on.Load()
	var rid int64
	if on {
		rid = r.tr.id()
		r.tr.round.Store(g)
	}
	t0 := r.ns()
	r.submitAll(st.client, g, rid, on, timed)
	t1 := r.ns()
	if err := r.call(on, rid, g, "client.tick", callKey{path: "/v1/tick", round: g}, func() error {
		_, err := st.client.Tick(1)
		return err
	}); err != nil {
		return err
	}
	t2 := r.ns()
	cut := r.spec.cutEvery > 0 && (g+1)%r.spec.cutEvery == 0
	if cut {
		if r.traced && timed {
			c, err := st.counters()
			if err != nil {
				return err
			}
			r.cutBefore = append(r.cutBefore, c)
		}
		if err := r.call(on, rid, g, "service.checkpoint", callKey{}, st.svc.Checkpoint); err != nil {
			return err
		}
		if r.traced && timed {
			c, err := st.counters()
			if err != nil {
				return err
			}
			r.cutAfter = append(r.cutAfter, c)
		}
	}
	t3 := r.ns()
	if timed {
		r.roundNs = append(r.roundNs, t3-t0)
		r.tickNs = append(r.tickNs, t2-t1)
		if cut {
			r.cutNs = append(r.cutNs, t3-t2)
		}
	}
	if on {
		r.tr.add(span{ID: rid, Name: "round", Round: g, Start: t0, End: t3})
	}
	return nil
}

// submitAll lands every batch of round g from the submitter goroutines,
// which share one client and pull batches from a common index.
func (r *runner) submitAll(c *serve.Client, g, parent int64, on, timed bool) {
	tasks := r.in.active[g%int64(r.in.cycle)]
	if len(tasks) == 0 {
		return
	}
	type tally struct {
		ok, failed, jobs int64
		lat              []int64
	}
	res := make([]tally, min(r.conns, len(tasks)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range res {
		wg.Add(1)
		go func(res *tally) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(tasks)); i = next.Add(1) - 1 {
				t := tasks[i]
				name := r.in.tenants[t].name
				jobs := r.in.batch(t, g)
				var id int64
				if on {
					id = r.tr.id()
					r.tr.expect(callKey{path: "/v1/jobs", round: g, tenant: name}, id)
				}
				t0 := r.ns()
				out, err := c.Submit(&serve.SubmitRequest{Schema: serve.WireSchema, Tenant: name, Jobs: jobs})
				t1 := r.ns()
				if on {
					r.tr.add(span{ID: id, Parent: parent, Name: "client.submit", Round: g, Tenant: name, Start: t0, End: t1})
				}
				// IDs advance even for a failed batch, so later batches stay
				// valid; the replay then disagrees and the run is incorrect.
				r.in.sent(t, g)
				if err != nil || !out.Accepted {
					res.failed++
					continue
				}
				res.ok++
				res.jobs += int64(len(jobs))
				if timed {
					res.lat = append(res.lat, t1-t0)
				}
			}
		}(&res[w])
	}
	wg.Wait()
	for _, t := range res {
		r.ops.attempted += t.ok + t.failed
		r.ops.failed += t.failed
		r.accepted += t.jobs
		if timed {
			r.jobs += t.jobs
			r.submitNs = append(r.submitNs, t.lat...)
		}
	}
}

// --- fleet workload ---

type fleetStack struct {
	disp    *dispatch.Dispatcher
	srv     *http.Server
	done    chan struct{}
	url     string
	workers []*dispatch.Worker
	driver  *dispatch.Driver
	leases  int64 // lease grants + revokes + stale epochs seen so far
}

func (r *runner) bootFleet(dir string) (*fleetStack, error) {
	s0 := r.ns()
	d, err := dispatch.New(dispatch.Config{
		Service: dispatch.ServiceConfig{
			Shards: r.spec.shards, Resources: r.spec.resources, Delta: r.spec.delta,
			Watermark: watermark, CheckpointBundles: true,
		},
		StateDir: dir,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	var h http.Handler = d.Handler()
	if r.tr != nil {
		h = r.tr.wrap("dispatch", h)
	}
	f := &fleetStack{disp: d, srv: serve.HardenedServer(h), done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(f.done)
		_ = f.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	for i := 0; i < 2; i++ {
		w, err := dispatch.StartWorker(fmt.Sprintf("w%d", i), f.url, "127.0.0.1:0", io.Discard)
		if err != nil {
			return nil, errors.Join(err, f.stop())
		}
		f.workers = append(f.workers, w)
	}
	if err := f.awaitFairShare(r.spec.shards); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	if f.driver, err = dispatch.NewDriver(f.url, dispatch.DriverConfig{Wire: serve.WireBinary}); err != nil {
		return nil, errors.Join(err, f.stop())
	}
	f.leases = f.leaseChanges()
	if r.tr != nil {
		r.tr.add(span{ID: r.tr.id(), Name: "fleet.boot", Round: -1, Start: s0, End: r.ns()})
	}
	return f, nil
}

// awaitFairShare returns once every worker holds its fair share of shards
// and two consecutive placement reads agree. Leases are granted only at a
// worker's first heartbeat; a round timed before that would pay the Driver's
// retry sleeps.
func (f *fleetStack) awaitFairShare(shards int) error {
	dc := dispatch.NewClient(f.url)
	fair := shards / len(f.workers)
	prev := ""
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		cur := ""
		if p, err := dc.Placement(); err == nil && len(p.Shards) == shards {
			cur = fmt.Sprint(p.Shards)
			for _, e := range p.Shards {
				if e.Addr == "" {
					cur = ""
				}
			}
			for _, w := range f.workers {
				if len(w.Held()) != fair {
					cur = ""
				}
			}
		}
		if cur != "" && cur == prev {
			return nil
		}
		prev = cur
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("fleet: shards not at fair share after 10s")
}

func (f *fleetStack) stop() error {
	for _, w := range f.workers {
		w.Close()
	}
	err := f.srv.Close()
	<-f.done
	f.disp.Close()
	return err
}

func (f *fleetStack) leaseChanges() int64 {
	c := indexSnapshot(f.disp.Metrics())
	return c[obs.MetricLeaseGrants].Value + c[obs.MetricLeaseRevokes].Value + c[obs.MetricStaleEpochs].Value
}

// workerCounters merges both workers' /metrics.
func (f *fleetStack) workerCounters() (counters, error) {
	var snaps []*obs.Snapshot
	for _, w := range f.workers {
		s, err := serve.NewClient(w.Addr()).Metrics()
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, s)
	}
	m, err := obs.MergeSnapshots(snaps...)
	if err != nil {
		return nil, err
	}
	return indexSnapshot(m), nil
}

// stats sums both workers' /v1/stats totals.
func (f *fleetStack) stats() (*serve.StatsResponse, error) {
	agg := &serve.StatsResponse{}
	for _, w := range f.workers {
		st, err := serve.NewClient(w.Addr()).Stats()
		if err != nil {
			return nil, err
		}
		t := &agg.Totals
		t.Tenants += st.Totals.Tenants
		t.Backlog += st.Totals.Backlog
		t.Inflight += st.Totals.Inflight
		t.Accepted += st.Totals.Accepted
		t.Rejected += st.Totals.Rejected
		t.Refused += st.Totals.Refused
		t.Executed += st.Totals.Executed
		t.Dropped += st.Totals.Dropped
		t.Reconfigs += st.Totals.Reconfigs
		t.ReconfigCost += st.Totals.ReconfigCost
	}
	return agg, nil
}

func (r *runner) runFleet() error {
	var f *fleetStack
	for k := 0; k < r.spec.setups; k++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("dispatcher-%d", k))
		t0 := time.Now()
		var err error
		if f, err = r.bootFleet(dir); err != nil {
			return err
		}
		r.setupNs = append(r.setupNs, int64(time.Since(t0)))
		r.fleetStateDir = dir
	}
	err := r.driveFleet(f)
	return errors.Join(err, f.stop())
}

func (r *runner) driveFleet(f *fleetStack) error {
	g := int64(0)
	for ; g < r.spec.warmup; g++ {
		if err := r.fleetRound(f, g, false); err != nil {
			return err
		}
	}
	snap := func() (counters, error) {
		if d := indexSnapshot(f.disp.Metrics()); r.disp0 == nil {
			r.disp0 = d
		} else {
			r.disp1 = d
		}
		return f.workerCounters()
	}
	var err error
	if r.stats0, err = f.stats(); err != nil {
		return err
	}
	if err := r.timed(&g, func(g int64) error { return r.fleetRound(f, g, true) }, snap); err != nil {
		return err
	}
	stats, err := f.stats()
	if err != nil {
		return err
	}
	r.resident = stats.Totals.Tenants
	for i := int64(0); i < r.in.maxDelay+2; i++ {
		if err := r.call(false, 0, g, "drain round", callKey{}, func() error { return f.driver.Round(nil) }); err != nil {
			return err
		}
		g++
	}
	r.end = g
	if r.peakRSS, err = peakRSSBytes(); err != nil {
		return err
	}
	if stats, err = f.stats(); err != nil {
		return err
	}
	return r.finish(stats, nil, f)
}

// fleetRound runs one Driver.Round with every batch of round g. A round
// also fails when the dispatcher's lease counters moved during it: the
// placement changed under the load.
func (r *runner) fleetRound(f *fleetStack, g int64, timed bool) error {
	on := r.tr != nil && r.tr.on.Load()
	var did int64
	if on {
		did = r.tr.id()
		r.tr.round.Store(g)
		r.tr.parent.Store(did)
	}
	tasks := r.in.active[g%int64(r.in.cycle)]
	batches := make([]dispatch.Batch, 0, len(tasks))
	var jobs int64
	for _, t := range tasks {
		b := r.in.batch(t, g)
		batches = append(batches, dispatch.Batch{Tenant: r.in.tenants[t].name, Jobs: b})
		jobs += int64(len(b))
	}
	t0 := r.ns()
	err := f.driver.Round(batches)
	t1 := r.ns()
	r.ops.attempted++
	if err != nil {
		r.ops.failed++
		return fmt.Errorf("driver round %d: %w", g, err)
	}
	for _, t := range tasks {
		r.in.sent(t, g)
	}
	if n := f.leaseChanges(); n != f.leases {
		r.ops.failed++
		f.leases = n
	}
	r.accepted += jobs
	if timed {
		r.jobs += jobs
		r.roundNs = append(r.roundNs, t1-t0)
	}
	if on {
		r.tr.parent.Store(0)
		r.tr.add(span{ID: did, Name: "driver.round", Round: g, Start: t0, End: t1})
	}
	return nil
}
