package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rrsched/internal/ckptstore"
	"rrsched/internal/obs"
	"rrsched/internal/serve"
)

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// reportEndToEnd adds the figures a user of the system sees. Every workload
// reports the first seven; all but round_ms_p95 are the result line (tails
// are too exposed to CPU steal to gate on). Submit, tick and cut latencies
// exist only where the benchmark itself makes those calls.
func (r *runner) reportEndToEnd(stats *serve.StatsResponse) {
	p := &r.rep
	rounds := len(r.roundNs)
	p.add("setup_s", float64(median(r.setupNs))/1e9, "s", len(r.setupNs))
	// Rates are medians over the window's blocks (see blockRounds).
	rates := make([]float64, len(r.blocks))
	cpus := make([]float64, len(r.blocks))
	for i, b := range r.blocks {
		rates[i] = float64(b.jobs) / (float64(b.wall) / 1e9)
		cpus[i] = float64(b.cpuNs) / 1e3 / float64(b.jobs)
	}
	p.add("jobs_per_s", medianFloat(rates), "jobs/s", len(r.blocks))
	p.add("round_ms_p50", ms(percentile(r.roundNs, 50)), "ms", rounds)
	p.add("round_ms_p95", ms(percentile(r.roundNs, 95)), "ms", rounds)
	p.add("cpu_us_per_job", medianFloat(cpus), "us/job", len(r.blocks))
	p.add("peak_rss_mib", float64(r.peakRSS)/(1<<20), "MiB", 1)
	tot := r.windowTotals(stats)
	resolved := tot.Executed + tot.Dropped
	p.add("cost_per_job", float64(tot.ReconfigCost+tot.Dropped)/float64(resolved), "ratio", int(resolved))

	tail := func(name string, samples []int64) {
		// A p99 needs at least 1000 samples, so that 10 lie beyond it.
		if len(samples) < 1000 {
			p.na(name, "ms", fmt.Sprintf("%d samples, need 1000", len(samples)))
			return
		}
		p.add(name, ms(percentile(samples, 99)), "ms", len(samples))
	}
	tail("round_ms_p99", r.roundNs)
	if r.spec.fleet {
		for _, name := range []string{"submit_ms_p50", "submit_ms_p99", "tick_ms_p50", "tick_ms_p99"} {
			p.na(name, "ms", "submits and ticks happen inside Driver.Round")
		}
	} else {
		p.add("submit_ms_p50", ms(percentile(r.submitNs, 50)), "ms", len(r.submitNs))
		tail("submit_ms_p99", r.submitNs)
		p.add("tick_ms_p50", ms(percentile(r.tickNs, 50)), "ms", len(r.tickNs))
		tail("tick_ms_p99", r.tickNs)
	}
	if len(r.cutNs) > 0 {
		p.add("cut_ms_p50", ms(percentile(r.cutNs, 50)), "ms", len(r.cutNs))
	} else {
		p.na("cut_ms_p50", "ms", "no checkpoint cuts on this workload")
	}
	p.add("fail_frac", float64(r.ops.failed)/float64(r.ops.attempted), "ratio", int(r.ops.attempted))
	p.add("jobs_per_s_window", float64(r.jobs)/r.wall.Seconds(), "jobs/s", rounds)
	p.add("machine.steal_frac", r.steal, "ratio", 1)
}

// reportLayers adds the traced run's per-layer figures: spans around the
// benchmark's own calls into each layer, deltas of the program's /metrics
// over the timed window, and post-run replays of the run's inputs through
// the inner layers' public functions.
func (r *runner) reportLayers(reps []tenantReplay, st *serveStack, f *fleetStack) error {
	p := &r.rep
	spans, children := r.tr.analyze()
	rounds := r.timedTo - r.timedFrom
	get := func(name string) *spanStats {
		if s := spans[name]; s != nil {
			return s
		}
		return &spanStats{}
	}

	// tracing. On fleet the round is one Driver.Round, and only its calls
	// into the dispatcher can be wrapped: the figure is their share.
	if n := r.tr.unmatched.Load(); n > 0 {
		return fmt.Errorf("%d submit handler spans matched no client span", n)
	}
	root := "round"
	if r.spec.fleet {
		root = "driver.round"
	}
	cov, n := r.tr.roundCoverage(root, children)
	p.add("trace.round_covered_frac", cov, "ratio", n)
	var jobs, wall [2]int64
	for _, b := range r.blocks {
		k := 0
		if b.traced {
			k = 1
		}
		jobs[k] += b.jobs
		wall[k] += b.wall
	}
	traced := float64(jobs[1]) / float64(wall[1])
	untraced := float64(jobs[0]) / float64(wall[0])
	p.add("trace.overhead_frac", 1-traced/untraced, "ratio", len(r.blocks))

	// serve HTTP + wire
	if st != nil {
		cs, ss, tk := get("client.submit"), get("serve/v1/jobs"), get("serve/v1/tick")
		p.add("http.submit_client_us_p50", cs.p50/1e3, "us", cs.n)
		p.add("http.submit_client_self_us_mean", cs.selfMean/1e3, "us", cs.n)
		p.add("http.submit_server_us_p50", ss.p50/1e3, "us", ss.n)
		p.add("http.tick_server_ms_p50", tk.p50/1e6, "ms", tk.n)
	} else {
		for _, name := range []string{"http.submit_client_us_p50", "http.submit_client_self_us_mean", "http.submit_server_us_p50"} {
			p.na(name, "us", "the Driver's calls to workers cannot be wrapped from outside")
		}
		p.na("http.tick_server_ms_p50", "ms", "the Driver's calls to workers cannot be wrapped from outside")
	}
	if err := r.wireReplay(); err != nil {
		return err
	}
	mean, cnt := histMean(r.met0, r.met1, obs.MetricWireCoalesced)
	p.add("wire.coalesced_batch_mean", mean, "count", int(cnt))

	// serve shard
	admit, nAdmit := histMean(r.met0, r.met1, serve.MetricSubmitNs)
	p.add("shard.admit_us_mean", admit/1e3, "us", int(nAdmit))
	tick, nTick := histMean(r.met0, r.met1, serve.MetricTickNs)
	p.add("shard.tick_ms_mean", tick/1e6, "ms", int(nTick))
	if st != nil {
		ss, tk := get("serve/v1/jobs"), get("serve/v1/tick")
		p.add("shard.queue_wait_us_mean", (ss.mean-admit)/1e3, "us", ss.n)
		p.add("shard.tick_parallelism", tick*float64(nTick)/(tk.mean*float64(rounds)), "ratio", tk.n)
	} else {
		p.na("shard.queue_wait_us_mean", "us", "no handler wrapper on workers")
		p.na("shard.tick_parallelism", "ratio", "the Driver ticks shards one at a time")
	}
	if d := delta(r.met0, r.met1, obs.MetricCkptFaultIns); d > 0 {
		p.add("shard.fault_ins_per_round", float64(d)/float64(rounds), "count", int(rounds))
		fi, nfi := histMean(r.met0, r.met1, obs.MetricCkptFaultInNs)
		p.add("shard.fault_in_us_mean", fi/1e3, "us", int(nfi))
	} else {
		p.na("shard.fault_ins_per_round", "count", "no eviction on this workload")
		p.na("shard.fault_in_us_mean", "us", "no eviction on this workload")
	}
	p.add("shard.resident_tenants", float64(r.resident), "count", 1)

	// stream + core
	var pushNs, pushRounds, snapNs, snapBytes int64
	var snaps []snapshot
	for _, x := range reps {
		pushNs += x.pushNs
		pushRounds += x.pushRounds
		for _, s := range x.snaps {
			snapNs += s.ns
			snapBytes += int64(len(s.data))
		}
		snaps = append(snaps, x.snaps...)
	}
	p.add("stream.push_us_per_tenant_round", float64(pushNs)/1e3/float64(pushRounds), "us", int(pushRounds))
	tickSum := r.met1[serve.MetricTickNs].Sum - r.met0[serve.MetricTickNs].Sum
	p.add("stream.push_share_of_tick", float64(pushNs)/float64(tickSum), "ratio", int(pushRounds))
	p.add("stream.snapshot_us_per_tenant", float64(snapNs)/1e3/float64(len(snaps)), "us", len(snaps))
	p.add("stream.snapshot_bytes_per_tenant", float64(snapBytes)/float64(len(snaps)), "bytes", len(snaps))
	p.add("runtime.alloc_bytes_per_job", float64(r.rt1.allocBytes-r.rt0.allocBytes)/float64(r.jobs), "bytes/job", int(r.jobs))
	p.add("runtime.gc_cpu_frac", (r.rt1.gcCPU-r.rt0.gcCPU)/(r.rt1.totalCPU-r.rt0.totalCPU), "ratio", int(rounds))

	// chunk store
	if err := r.ckptReplay(snaps); err != nil {
		return err
	}
	if r.spec.stateful {
		if err := r.reportCuts(rounds); err != nil {
			return err
		}
	} else {
		for _, m := range [][2]string{{"ckpt.chunks_per_cut", "count"}, {"ckpt.chunk_bytes_per_cut", "bytes"},
			{"ckpt.dedup_frac", "ratio"}, {"ckpt.folded_per_cut", "count"}, {"ckpt.closure_ms", "ms"},
			{"ckpt.declog_bytes_per_round", "bytes"}} {
			p.na(m[0], m[1], "no state dir on this workload")
		}
	}

	// dispatch
	if f != nil {
		push, pl := get("dispatch/v1/checkpoint"), get("dispatch/v1/placement")
		p.add("dispatch.push_server_ms_mean", push.mean/1e6, "ms", push.n)
		p.add("dispatch.push_bytes_mean", push.bytesMean, "bytes", push.n)
		p.add("dispatch.pushes_per_round", float64(delta(r.disp0, r.disp1, obs.MetricCheckpoints))/float64(rounds), "count", int(rounds))
		p.add("dispatch.placement_server_us_p50", pl.p50/1e3, "us", pl.n)
		persisted, files, err := fileSizes(filepath.Join(r.fleetStateDir, "shard-*.json"))
		if err != nil {
			return err
		}
		p.add("dispatch.persist_bytes_per_push", float64(persisted)/float64(files), "bytes", files)
		p.add("dispatch.worker_tick_ms_mean", tick/1e6, "ms", int(nTick))
		leases := delta(r.disp0, r.disp1, obs.MetricLeaseGrants) + delta(r.disp0, r.disp1, obs.MetricLeaseRevokes) +
			delta(r.disp0, r.disp1, obs.MetricStaleEpochs)
		p.add("dispatch.lease_changes", float64(leases), "count", int(rounds))
	} else {
		for _, m := range [][2]string{{"dispatch.push_server_ms_mean", "ms"}, {"dispatch.push_bytes_mean", "bytes"},
			{"dispatch.pushes_per_round", "count"}, {"dispatch.placement_server_us_p50", "us"},
			{"dispatch.persist_bytes_per_push", "bytes"}, {"dispatch.worker_tick_ms_mean", "ms"}, {"dispatch.lease_changes", "count"}} {
			p.na(m[0], m[1], "no dispatcher on this workload")
		}
	}

	// Self time per span name: duration minus the time its child spans cover.
	names := make([]string, 0, len(spans))
	for name := range spans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := spans[name]
		p.add("span."+name+".mean_us", s.mean/1e3, "us", s.n)
		p.add("span."+name+".self_us", s.selfMean/1e3, "us", s.n)
	}
	return nil
}

// wireReplay times the binary codec on the run's own batches: one full
// pattern cycle (capped), encoded and decoded repeatedly.
func (r *runner) wireReplay() error {
	var reqs []serve.SubmitRequest
	var jobs int64
	for k := 0; k < r.in.cycle && len(reqs) < 4096; k++ {
		for _, t := range r.in.active[k] {
			ti := r.in.tenants[t]
			reqs = append(reqs, serve.SubmitRequest{Schema: serve.WireSchema, Tenant: ti.name, Jobs: ti.pattern[k]})
			jobs += int64(len(ti.pattern[k]))
		}
	}
	frames := make([][]byte, len(reqs))
	var size int64
	for i := range reqs {
		fr, err := serve.EncodeSubmitBinary(&reqs[i])
		if err != nil {
			return err
		}
		frames[i] = fr
		size += int64(len(fr))
	}
	passes := max(1, int(2_000_000/jobs))
	var buf []byte
	t0 := time.Now()
	for k := 0; k < passes; k++ {
		for i := range reqs {
			var err error
			if buf, err = serve.AppendSubmitBinary(buf[:0], &reqs[i]); err != nil {
				return err
			}
		}
	}
	enc := time.Since(t0)
	var req serve.SubmitRequest
	t0 = time.Now()
	for k := 0; k < passes; k++ {
		for _, fr := range frames {
			if err := serve.DecodeSubmitBinaryInto(&req, fr); err != nil {
				return err
			}
		}
	}
	dec := time.Since(t0)
	n := jobs * int64(passes)
	r.rep.add("wire.bytes_per_job", float64(size)/float64(jobs), "bytes/job", int(jobs))
	r.rep.add("wire.encode_ns_per_job", float64(enc.Nanoseconds())/float64(n), "ns/job", int(n))
	r.rep.add("wire.decode_ns_per_job", float64(dec.Nanoseconds())/float64(n), "ns/job", int(n))
	return nil
}

// maxReplayChunks caps the replayed snapshots put into the scratch store.
const maxReplayChunks = 4000

// ckptReplay puts the replay's stream snapshots, in round order and each as
// a delta against the tenant's previous chunk, into a scratch chunk store,
// then resolves every chunk back.
func (r *runner) ckptReplay(snaps []snapshot) error {
	sort.Slice(snaps, func(i, j int) bool {
		if snaps[i].round != snaps[j].round {
			return snaps[i].round < snaps[j].round
		}
		return snaps[i].tenant < snaps[j].tenant
	})
	if len(snaps) > maxReplayChunks {
		snaps = snaps[:maxReplayChunks]
	}
	store, err := ckptstore.Open(filepath.Join(r.dir, "replay-chunks"), 0)
	if err != nil {
		return err
	}
	parent := map[int]ckptstore.Ref{}
	var puts, resolves []int64
	var ids []uint64
	for _, s := range snaps {
		t0 := r.ns()
		res, err := store.Put(s.data, parent[s.tenant])
		if err != nil {
			return err
		}
		puts = append(puts, r.ns()-t0)
		parent[s.tenant] = res.Ref
		ids = append(ids, res.Ref.ID)
	}
	for _, id := range ids {
		t0 := r.ns()
		if _, _, err := store.Resolve(id); err != nil {
			return err
		}
		resolves = append(resolves, r.ns()-t0)
	}
	r.rep.add("ckpt.put_us_p50", float64(percentile(puts, 50))/1e3, "us", len(puts))
	r.rep.add("ckpt.resolve_us_p50", float64(percentile(resolves, 50))/1e3, "us", len(resolves))
	return nil
}

// reportCuts derives the paging cut figures from /metrics deltas taken
// around every cut of the timed window, and times a closure walk over the
// run's own committed manifests.
func (r *runner) reportCuts(rounds int64) error {
	p := &r.rep
	var written, deduped, folded, bytes int64
	for i := range r.cutAfter {
		b, a := r.cutBefore[i], r.cutAfter[i]
		written += delta(b, a, obs.MetricCkptChunksWritten)
		deduped += delta(b, a, obs.MetricCkptChunksDeduped)
		folded += delta(b, a, obs.MetricCkptChunksFolded)
		bytes += delta(b, a, obs.MetricCkptChunkBytes)
	}
	cuts := float64(len(r.cutAfter))
	p.add("ckpt.chunks_per_cut", float64(written)/cuts, "count", len(r.cutAfter))
	p.add("ckpt.chunk_bytes_per_cut", float64(bytes)/cuts, "bytes", len(r.cutAfter))
	p.add("ckpt.dedup_frac", float64(deduped)/float64(written+deduped), "ratio", len(r.cutAfter))
	p.add("ckpt.folded_per_cut", float64(folded)/cuts, "count", len(r.cutAfter))
	p.add("ckpt.declog_bytes_per_round", float64(delta(r.met0, r.met1, obs.MetricCkptDecisionLogBytes))/float64(rounds), "bytes", int(rounds))

	state := filepath.Join(r.dir, "state")
	t0 := time.Now()
	store, err := ckptstore.Open(filepath.Join(state, "chunks"), 0)
	if err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(state, "manifest-*.json"))
	if err != nil {
		return err
	}
	var roots []uint64
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		m, err := ckptstore.DecodeManifest(data)
		if err != nil {
			return err
		}
		rs, err := m.Roots()
		if err != nil {
			return err
		}
		roots = append(roots, rs...)
	}
	live, err := store.Closure(roots)
	if err != nil {
		return err
	}
	p.add("ckpt.closure_ms", ms(int64(time.Since(t0))), "ms", len(live))
	return nil
}

// fileSizes sums the sizes of the files matching pattern.
func fileSizes(pattern string) (int64, int, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, name := range files {
		fi, err := os.Stat(name)
		if err != nil {
			return 0, 0, err
		}
		total += fi.Size()
	}
	return total, len(files), nil
}
