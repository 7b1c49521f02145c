// Command rrload drives an rrserve instance with a seeded workload and
// reports latency, throughput, and drop-rate figures. It reuses the
// internal/workload generators, so a -seed pins the exact job stream: the
// same seed against the same server configuration reproduces the same
// per-tenant decision streams.
//
// Examples:
//
//	rrload -addr http://127.0.0.1:8080 -tenants 8 -rounds 256 -seed 1
//	rrload -addr http://127.0.0.1:8080 -quick -out stats.json
//	rrload -addr http://127.0.0.1:8080 -wire binary -min-rate 400000
//	rrload -addr http://127.0.0.1:8080 -sparse 100000 -rounds 64 -out stats.json
//
// -wire selects the submit codec: binary (default) speaks the rrserve/v2
// framing, json the rrserve/v1 debugging format — the pair the CI wire A/B
// compares.
//
// In virtual-time mode (the default, -tick=true) rrload owns the clock: each
// round it submits every tenant's arrivals concurrently, then advances the
// server one round via /v1/tick, and finally drains enough extra rounds that
// every job has executed or dropped. With -tick=false it only submits, at
// the server's real-time pace.
//
// -sparse N switches to the high-cardinality paging scenario: N one-burst
// tenants, each submitting a single small batch at round (i mod rounds) and
// then idling forever. Against a server booted with -state and -evict-after,
// the resident set stays near N/rounds x the eviction window while the tenant
// universe is unbounded; the reported server RSS (and the rss_bytes field in
// the -out artifact) is the figure to watch. CI smokes this at 100k tenants;
// 1M+ runs fine locally (see DESIGN.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rrsched/internal/dispatch"
	"rrsched/internal/model"
	"rrsched/internal/obs"
	"rrsched/internal/serve"
	"rrsched/internal/workload"
)

func main() {
	// Library code returns errors; a defect that still panics must exit with
	// a diagnostic, not a stack trace.
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, "rrload: internal panic:", r)
			os.Exit(1)
		}
	}()
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rrload:", err)
		os.Exit(1)
	}
}

// tenantStream is one tenant's generated arrival stream, split per round.
type tenantStream struct {
	name  string
	class string // QoS class stamped on every submit; empty = server default
	seq   *model.Sequence
}

// reshardPlan is the parsed -reshard flag: resize the serving pool to shards
// at the given round boundary, mid-run.
type reshardPlan struct {
	round  int64
	shards int
}

// parseReshard parses "ROUND:SHARDS" (e.g. "24:8").
func parseReshard(s string) (*reshardPlan, error) {
	if s == "" {
		return nil, nil
	}
	roundStr, shardStr, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("-reshard %q: want ROUND:SHARDS", s)
	}
	round, err := strconv.ParseInt(roundStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("-reshard %q: round: %w", s, err)
	}
	shards, err := strconv.Atoi(shardStr)
	if err != nil {
		return nil, fmt.Errorf("-reshard %q: shards: %w", s, err)
	}
	if round < 0 || shards < 1 {
		return nil, fmt.Errorf("-reshard %q: round must be >= 0 and shards >= 1", s)
	}
	return &reshardPlan{round: round, shards: shards}, nil
}

// result accumulates one worker's view of the run; workers keep private
// results and the coordinator folds them after the barrier, so the hot path
// takes no locks.
type result struct {
	submitted int64
	accepted  int64
	rejected  int64 // 429 backpressure
	refused   int64 // 503 drain
	latencies []int64
}

func (r *result) fold(o *result) {
	r.submitted += o.submitted
	r.accepted += o.accepted
	r.rejected += o.rejected
	r.refused += o.refused
	r.latencies = append(r.latencies, o.latencies...)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rrload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "rrserve base URL")
		dispURL  = fs.String("dispatcher", "", "rrdispatch base URL: drive the worker fleet through the placement table instead of -addr (rounds become driver-owned transactions that survive worker failovers; -conns and -tick are ignored)")
		tenants  = fs.Int("tenants", 8, "number of tenants")
		rounds   = fs.Int64("rounds", 256, "arrival rounds per tenant")
		colors   = fs.Int("colors", 8, "colors per tenant")
		load     = fs.Float64("load", 0.6, "per-color load fraction")
		seed     = fs.Int64("seed", 1, "PRNG seed (per-tenant streams derive from it)")
		delta    = fs.Int64("delta", 4, "reconfiguration cost used by the workload generators")
		minExp   = fs.Uint("min-delay-exp", 2, "minimum delay bound exponent (D = 2^exp)")
		maxExp   = fs.Uint("max-delay-exp", 5, "maximum delay bound exponent")
		conns    = fs.Int("conns", 8, "concurrent submit workers")
		batch    = fs.Int("batch", 4096, "max jobs per submit request")
		tick     = fs.Bool("tick", true, "drive /v1/tick after each submitted round (virtual-time server)")
		quick    = fs.Bool("quick", false, "small preset for smoke runs (-tenants 4 -rounds 48 -colors 6)")
		out      = fs.String("out", "", "write the final /v1/stats JSON to this file")
		minRate  = fs.Float64("min-rate", 0, "fail unless sustained accepted-jobs/s meets this rate (0 disables)")
		wireFlag = fs.String("wire", "binary", "wire format: json or binary")
		reshardF = fs.String("reshard", "", "ROUND:SHARDS — issue one live reshard to SHARDS at the ROUND boundary mid-run (works in both server and -dispatcher modes)")
		classesF = fs.String("classes", "", "comma list of QoS class names; tenants cycle across them and stamp every submit (server must be booted with matching -classes)")
		sparseN  = fs.Int("sparse", 0, "high-cardinality paging scenario: this many one-burst tenants instead of the generated streams (pair with a server booted with -state and -evict-after; 0 disables)")
		sparseJ  = fs.Int("sparse-jobs", 4, "jobs per tenant burst in -sparse mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wire, err := serve.ParseWireMode(*wireFlag)
	if err != nil {
		return err
	}
	reshard, err := parseReshard(*reshardF)
	if err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *quick {
		*tenants, *rounds, *colors = 4, 48, 6
	}
	if *tenants <= 0 || *rounds <= 0 || *conns <= 0 || *batch <= 0 {
		return fmt.Errorf("tenants, rounds, conns, and batch must be positive")
	}
	if *sparseN > 0 {
		if *dispURL != "" || *classesF != "" {
			return fmt.Errorf("-sparse drives a plain virtual-time server; it is incompatible with -dispatcher and -classes")
		}
		if *sparseJ <= 0 {
			return fmt.Errorf("sparse-jobs must be positive")
		}
		client := serve.NewClientWire(*addr, serve.DefaultRetryPolicy(), wire)
		if !client.Healthy() {
			return fmt.Errorf("server at %s is not healthy", *addr)
		}
		return driveSparse(stdout, client, *sparseN, *sparseJ, *rounds, *conns, *out, *minRate, reshard)
	}

	// Generate every tenant's stream up front: generation cost must not
	// pollute the latency figures.
	names := classNames(*classesF)
	streams := make([]tenantStream, *tenants)
	horizon := int64(0)
	totalJobs := 0
	for i := range streams {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed:        *seed + int64(i),
			Delta:       *delta,
			Colors:      *colors,
			Rounds:      *rounds,
			MinDelayExp: *minExp,
			MaxDelayExp: *maxExp,
			Load:        *load,
		})
		if err != nil {
			return err
		}
		// Canonical IDs are round-major and dense, which satisfies the wire
		// contract that a tenant's IDs increase strictly across batches.
		seq = seq.Canonical()
		streams[i] = tenantStream{name: fmt.Sprintf("tenant-%03d", i), seq: seq}
		if len(names) > 0 {
			streams[i].class = names[i%len(names)]
		}
		if h := seq.Horizon(); h > horizon {
			horizon = h
		}
		totalJobs += seq.NumJobs()
	}

	if *dispURL != "" {
		if len(names) > 0 {
			return fmt.Errorf("-classes drives per-submit class tags, which the dispatched driver does not carry; use it against -addr")
		}
		return driveDispatched(stdout, streams, *rounds, horizon, totalJobs, *batch, *dispURL, *out, *minRate, wire, reshard)
	}

	client := serve.NewClientWire(*addr, serve.DefaultRetryPolicy(), wire)
	if !client.Healthy() {
		return fmt.Errorf("server at %s is not healthy", *addr)
	}
	_, _ = fmt.Fprintf(stdout, "rrload: %d tenants x %d rounds, %d jobs total, seed %d -> %s\n", // best-effort status output
		*tenants, *rounds, totalJobs, *seed, *addr)

	total := &result{}
	start := obs.Now()
	// Drive arrival rounds, then enough drain rounds for every delay bound
	// to expire, so executed+dropped reaches the accepted total.
	lastRound := horizon + 1
	for r := int64(0); r < lastRound; r++ {
		if reshard != nil && r == reshard.round {
			rr, err := client.Reshard(reshard.shards)
			if err != nil {
				return fmt.Errorf("reshard at round %d: %w", r, err)
			}
			_, _ = fmt.Fprintf(stdout, "rrload: resharded %d -> %d at round %d  moved=%d migrated=%dB pause=%.3fms (epoch %d)\n", // best-effort status output
				rr.From, rr.Shards, rr.Round, rr.Moved, rr.MigratedBytes, float64(rr.DurationNs)/1e6, rr.Epoch)
		}
		if r < *rounds {
			submitRound(client, streams, r, *batch, *conns, total)
		}
		if *tick {
			if _, err := client.Tick(1); err != nil {
				return err
			}
		}
	}
	elapsed := obs.Now() - start

	stats, err := client.Stats()
	if err != nil {
		return err
	}
	if *out != "" {
		raw, err := client.StatsRaw()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
	}
	report(stdout, total, stats, elapsed)
	if *minRate > 0 {
		rate := ratePerSec(total.accepted, elapsed)
		if rate < *minRate {
			return fmt.Errorf("sustained %.0f accepted jobs/s, below -min-rate %.0f", rate, *minRate)
		}
	}
	return nil
}

// driveDispatched replays the generated streams through a dispatched worker
// fleet: each round is one transactional dispatch.Driver round — every batch
// lands on the worker holding its tenant's shard, then every shard ticks once
// — so the run rides out worker crashes and lease migrations, at the cost of
// driver-serialized rounds (per-round latency is the figure reported).
func driveDispatched(stdout io.Writer, streams []tenantStream, rounds, horizon int64, totalJobs, batchSize int, base, outPath string, minRate float64, wire serve.WireMode, reshard *reshardPlan) error {
	driver, err := dispatch.NewDriver(base, dispatch.DriverConfig{Wire: wire})
	if err != nil {
		return err
	}
	_, _ = fmt.Fprintf(stdout, "rrload: dispatched mode -> %s (%d shards)\n", base, driver.Shards()) // best-effort status output

	var accepted int64
	var latencies []int64
	start := obs.Now()
	lastRound := horizon + 1
	for r := int64(0); r < lastRound; r++ {
		if reshard != nil && r == reshard.round {
			rr, err := dispatch.NewClient(base).Reshard(reshard.shards)
			if err != nil {
				return fmt.Errorf("fleet reshard at round %d: %w", r, err)
			}
			_, _ = fmt.Fprintf(stdout, "rrload: fleet resharded %d -> %d at round %d  moved=%d migrated=%dB pause=%.3fms (config epoch %d)\n", // best-effort status output
				rr.From, rr.Shards, rr.Round, rr.Moved, rr.MigratedBytes, float64(rr.DurationNs)/1e6, rr.Epoch)
		}
		var batches []dispatch.Batch
		if r < rounds {
			for _, ts := range streams {
				jobs := ts.seq.Request(r)
				for len(jobs) > 0 {
					n := len(jobs)
					if n > batchSize {
						n = batchSize
					}
					wire := make([]serve.SubmitJob, n)
					for i, j := range jobs[:n] {
						wire[i] = serve.SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay}
					}
					batches = append(batches, dispatch.Batch{Tenant: ts.name, Jobs: wire})
					jobs = jobs[n:]
				}
			}
		}
		t0 := obs.Now()
		if err := driver.Round(batches); err != nil {
			return fmt.Errorf("round %d: %w", r+1, err)
		}
		latencies = append(latencies, obs.Now()-t0)
		for _, b := range batches {
			accepted += int64(len(b.Jobs))
		}
	}
	elapsed := obs.Now() - start

	stats, err := fleetStats(base)
	if err != nil {
		return err
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, raw, 0o644); err != nil {
			return err
		}
	}
	total := &result{submitted: int64(totalJobs), accepted: accepted, latencies: latencies}
	report(stdout, total, stats, elapsed)
	if minRate > 0 {
		rate := ratePerSec(accepted, elapsed)
		if rate < minRate {
			return fmt.Errorf("sustained %.0f accepted jobs/s, below -min-rate %.0f", rate, minRate)
		}
	}
	return nil
}

// fleetStats aggregates serve stats across every worker in the placement
// table into one fleet-level response: totals summed, round the maximum.
func fleetStats(base string) (*serve.StatsResponse, error) {
	p, err := dispatch.NewClient(base).Placement()
	if err != nil {
		return nil, err
	}
	agg := &serve.StatsResponse{Schema: serve.StatsSchema, Shards: len(p.Shards)}
	seen := map[string]bool{}
	for _, e := range p.Shards {
		if e.Addr == "" || seen[e.Addr] {
			continue
		}
		seen[e.Addr] = true
		st, err := serve.NewClient(e.Addr).Stats()
		if err != nil {
			return nil, fmt.Errorf("stats from %s: %w", e.Addr, err)
		}
		if st.Round > agg.Round {
			agg.Round = st.Round
		}
		agg.Totals.Tenants += st.Totals.Tenants
		agg.Totals.Backlog += st.Totals.Backlog
		agg.Totals.Inflight += st.Totals.Inflight
		agg.Totals.Accepted += st.Totals.Accepted
		agg.Totals.Rejected += st.Totals.Rejected
		agg.Totals.Refused += st.Totals.Refused
		agg.Totals.Executed += st.Totals.Executed
		agg.Totals.Dropped += st.Totals.Dropped
		agg.Totals.Reconfigs += st.Totals.Reconfigs
		agg.Totals.ReconfigCost += st.Totals.ReconfigCost
	}
	agg.Totals.Round = agg.Round
	agg.Totals.Shard = -1
	return agg, nil
}

// submitTask is one tenant-batch bound for /v1/submit.
type submitTask struct {
	tenant string
	class  string
	jobs   []serve.SubmitJob
}

// submitRound fans one round's batches across conns workers. A round is a
// barrier: every batch lands before the caller ticks, so the server sees
// exactly the generated arrival pattern.
func submitRound(client *serve.Client, streams []tenantStream, r int64, batchSize, conns int, total *result) {
	var tasks []submitTask
	for _, ts := range streams {
		jobs := ts.seq.Request(r)
		for len(jobs) > 0 {
			n := len(jobs)
			if n > batchSize {
				n = batchSize
			}
			wire := make([]serve.SubmitJob, n)
			for i, j := range jobs[:n] {
				wire[i] = serve.SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay}
			}
			tasks = append(tasks, submitTask{tenant: ts.name, class: ts.class, jobs: wire})
			jobs = jobs[n:]
		}
	}
	submitTasks(client, tasks, conns, total)
}

// submitTasks drives the shared worker pool over one round's batches; every
// batch lands before it returns, so the caller may tick.
func submitTasks(client *serve.Client, tasks []submitTask, conns int, total *result) {
	if len(tasks) == 0 {
		return
	}
	if conns > len(tasks) {
		conns = len(tasks)
	}
	results := make([]result, conns)
	next := make(chan submitTask)
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func(res *result) {
			defer wg.Done()
			for t := range next {
				n := int64(len(t.jobs))
				res.submitted += n
				t0 := obs.Now()
				outcome, err := client.Submit(&serve.SubmitRequest{Schema: serve.WireSchema, Tenant: t.tenant, Class: t.class, Jobs: t.jobs})
				res.latencies = append(res.latencies, obs.Now()-t0)
				switch {
				case err != nil:
					// Transport/validation failure: count as refused; the
					// summary surfaces it and the exit code stays honest via
					// the accepted-vs-submitted line.
					res.refused += n
				case outcome.Accepted:
					res.accepted += n
				case outcome.Rejected:
					res.rejected += n
				case outcome.Refused:
					res.refused += n
				}
			}
		}(&results[w])
	}
	for _, t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()
	for i := range results {
		total.fold(&results[i])
	}
}

// driveSparse runs the high-cardinality paging scenario: nTenants one-burst
// tenants, each submitting jobsPer jobs at round (i mod rounds) and then
// idling forever. The tenant universe grows without bound while the working
// set per round stays near nTenants/rounds, which is exactly the shape
// cold-tenant eviction exists for: with -evict-after set on the server, idle
// tenants page out to the chunk store and the resident set — and the RSS the
// report prints — stays flat as nTenants grows.
func driveSparse(stdout io.Writer, client *serve.Client, nTenants, jobsPer int, rounds int64, conns int, outPath string, minRate float64, reshard *reshardPlan) error {
	// Fixed small delay bound: every burst resolves within sparseDelay rounds
	// of arrival, so the drain tail below settles the whole universe.
	const sparseDelay = int64(4)
	_, _ = fmt.Fprintf(stdout, "rrload: sparse mode, %d one-burst tenants x %d jobs over %d rounds\n", // best-effort status output
		nTenants, jobsPer, rounds)

	total := &result{}
	start := obs.Now()
	lastRound := rounds + sparseDelay + 1
	for r := int64(0); r < lastRound; r++ {
		if reshard != nil && r == reshard.round {
			rr, err := client.Reshard(reshard.shards)
			if err != nil {
				return fmt.Errorf("reshard at round %d: %w", r, err)
			}
			_, _ = fmt.Fprintf(stdout, "rrload: resharded %d -> %d at round %d  moved=%d migrated=%dB pause=%.3fms (epoch %d)\n", // best-effort status output
				rr.From, rr.Shards, rr.Round, rr.Moved, rr.MigratedBytes, float64(rr.DurationNs)/1e6, rr.Epoch)
		}
		if r < rounds {
			var tasks []submitTask
			for i := int(r); i < nTenants; i += int(rounds) {
				jobs := make([]serve.SubmitJob, jobsPer)
				for j := range jobs {
					jobs[j] = serve.SubmitJob{ID: int64(j), Color: int32(j % 4), Delay: sparseDelay}
				}
				tasks = append(tasks, submitTask{tenant: fmt.Sprintf("cold-%07d", i), jobs: jobs})
			}
			submitTasks(client, tasks, conns, total)
		}
		if _, err := client.Tick(1); err != nil {
			return err
		}
	}
	elapsed := obs.Now() - start

	stats, err := client.Stats()
	if err != nil {
		return err
	}
	if outPath != "" {
		raw, err := client.StatsRaw()
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, raw, 0o644); err != nil {
			return err
		}
	}
	report(stdout, total, stats, elapsed)
	if minRate > 0 {
		rate := ratePerSec(total.accepted, elapsed)
		if rate < minRate {
			return fmt.Errorf("sustained %.0f accepted jobs/s, below -min-rate %.0f", rate, minRate)
		}
	}
	return nil
}

func report(stdout io.Writer, total *result, stats *serve.StatsResponse, elapsedNs int64) {
	_, _ = fmt.Fprintf(stdout, "submitted: %d  accepted=%d rejected(429)=%d refused=%d\n", // best-effort summary output
		total.submitted, total.accepted, total.rejected, total.refused)
	_, _ = fmt.Fprintf(stdout, "server:    round=%d executed=%d dropped=%d reconfigs=%d backlog=%d inflight=%d\n", // best-effort summary output
		stats.Round, stats.Totals.Executed, stats.Totals.Dropped, stats.Totals.Reconfigs,
		stats.Totals.Backlog, stats.Totals.Inflight)
	dropRate := 0.0
	if done := stats.Totals.Executed + stats.Totals.Dropped; done > 0 {
		dropRate = float64(stats.Totals.Dropped) / float64(done)
	}
	_, _ = fmt.Fprintf(stdout, "rates:     %.0f jobs/s accepted  drop-rate=%.4f  wall=%.3fs\n", // best-effort summary output
		ratePerSec(total.accepted, elapsedNs), dropRate, float64(elapsedNs)/1e9)
	if stats.Totals.Evicted > 0 || stats.RSSBytes > 0 {
		_, _ = fmt.Fprintf(stdout, "paging:    resident=%d evicted=%d dirty=%d server-rss=%.1fMiB\n", // best-effort summary output
			stats.Totals.Tenants, stats.Totals.Evicted, stats.Totals.Dirty, float64(stats.RSSBytes)/(1<<20))
	}
	if len(total.latencies) > 0 {
		lat := total.latencies
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		_, _ = fmt.Fprintf(stdout, "latency:   p50=%s p95=%s p99=%s max=%s (%d requests)\n", // best-effort summary output
			ms(pct(lat, 50)), ms(pct(lat, 95)), ms(pct(lat, 99)), ms(lat[len(lat)-1]), len(lat))
	}
}

// classNames splits the -classes value into its class-name cycle.
func classNames(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

func ratePerSec(n, elapsedNs int64) float64 {
	if elapsedNs <= 0 {
		return 0
	}
	return float64(n) / (float64(elapsedNs) / 1e9)
}

// pct returns the p-th percentile of sorted samples.
func pct(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

func ms(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}
