package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"rrsched/internal/model"
	"rrsched/internal/obs"
	"rrsched/internal/stream"
	"rrsched/internal/workload"
)

// detTenant is one tenant of the end-to-end determinism fixture: a seeded
// workload plus the global round at which the tenant starts submitting
// (startRound > 0 exercises the epoch offset for late tenants).
type detTenant struct {
	name       string
	seq        *model.Sequence
	startRound int64
}

func detFixture(t *testing.T, seed int64) []detTenant {
	t.Helper()
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "late-tenant"}
	tenants := make([]detTenant, len(names))
	for i, name := range names {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed:        seed + int64(i),
			Delta:       4,
			Colors:      4 + i%3,
			Rounds:      20,
			MinDelayExp: 2,
			MaxDelayExp: 4,
			Load:        0.7,
		})
		if err != nil {
			t.Fatalf("workload for %s: %v", name, err)
		}
		tenants[i] = detTenant{name: name, seq: seq.Canonical()}
	}
	// The last tenant appears late: its first submission (local round 0)
	// happens at global round 5, so its epoch must offset every local round.
	tenants[len(tenants)-1].startRound = 5
	return tenants
}

// driveService replays the fixture against a service over real HTTP. Each
// global round, the tenants submit concurrently with each other and in
// varying batch splits — a tenant's own batches stay sequential, since IDs
// must increase across its batches — before one tick. The cross-tenant
// interleaving chaos is the point: decisions must not see it.
func driveService(t *testing.T, client *Client, tenants []detTenant, totalRounds int64) {
	t.Helper()
	driveServiceHook(t, client, tenants, totalRounds, nil)
}

// driveServiceHook is driveService with a per-round hook, called before the
// round's submissions; the reshard battery uses it to split or merge the
// pool mid-run.
func driveServiceHook(t *testing.T, client *Client, tenants []detTenant, totalRounds int64, hook func(r int64)) {
	t.Helper()
	driveServiceRuns(t, client, tenants, totalRounds, nil, hook)
}

// driveServiceRuns is driveServiceHook with the rounds ticked as runs says
// (see tickRuns); the hook runs at every round the service rests at.
func driveServiceRuns(t *testing.T, client *Client, tenants []detTenant, totalRounds int64, runs *tickRuns, hook func(r int64)) {
	t.Helper()
	for r := int64(0); r < totalRounds; r++ {
		submits := false
		for _, tn := range tenants {
			submits = submits || (r >= tn.startRound && len(tn.seq.Request(r-tn.startRound)) > 0)
		}
		if runs.owe(t, client, r, submits) {
			continue
		}
		if hook != nil {
			hook(r)
		}
		var wg sync.WaitGroup
		for i := range tenants {
			tn := &tenants[i]
			local := r - tn.startRound
			if local < 0 {
				continue
			}
			jobs := tn.seq.Request(local)
			if len(jobs) == 0 {
				continue
			}
			wg.Add(1)
			go func(name string, jobs []model.Job, split int) {
				defer wg.Done()
				for len(jobs) > 0 {
					n := split
					if n > len(jobs) {
						n = len(jobs)
					}
					wire := make([]SubmitJob, n)
					for k, j := range jobs[:n] {
						wire[k] = SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay}
					}
					jobs = jobs[n:]
					out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: name, Jobs: wire})
					if err != nil || !out.Accepted {
						t.Errorf("submit %s: out=%+v err=%v", name, out, err)
						return
					}
				}
			}(tn.name, tn.seq.Request(local), int(r%3)+1)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if _, err := client.Tick(1); err != nil {
			t.Fatalf("Tick at round %d: %v", r, err)
		}
	}
	runs.flush(t, client)
}

// tickRuns is the determinism batteries' second way to tick: each run of
// rounds without submissions goes out as one Tick(k), so every shard runs the
// run's rounds back to back in one round command. A run is cut before each
// round in stops, so a driver's hook sees the service at that round. A nil
// *tickRuns ticks every round on its own.
type tickRuns struct {
	stops   map[int64]bool
	owed    int
	longest int // the most rounds one Tick call advanced
}

// owe reports whether round r joins a run: it submits nothing and is not a
// stop, so its tick is owed. Otherwise it ticks the rounds owed, and the
// service is at round r when the driver goes on.
func (k *tickRuns) owe(t *testing.T, client *Client, r int64, submits bool) bool {
	t.Helper()
	if k == nil {
		return false
	}
	if !submits && !k.stops[r] {
		k.owed++
		return true
	}
	k.flush(t, client)
	return false
}

// flush ticks the rounds owed in one call.
func (k *tickRuns) flush(t *testing.T, client *Client) {
	t.Helper()
	if k == nil || k.owed == 0 {
		return
	}
	if _, err := client.Tick(k.owed); err != nil {
		t.Fatalf("Tick(%d): %v", k.owed, err)
	}
	k.longest = max(k.longest, k.owed)
	k.owed = 0
}

// epochOf returns the global round at which the service creates the tenant:
// its first accepted submission, i.e. the first local round with arrivals,
// offset by when the tenant starts submitting.
func epochOf(tn detTenant) int64 {
	for local := int64(0); local < tn.seq.NumRounds(); local++ {
		if len(tn.seq.Request(local)) > 0 {
			return tn.startRound + local
		}
	}
	return tn.startRound
}

// referenceDecisions replays one tenant's arrivals through a bare
// stream.Scheduler at tenant-local rounds, exactly as the service promises
// to: one Push per local round, jobs sorted by ID. Local round 0 is the
// tenant's epoch — its first accepted submission — so sequence rounds before
// the first arrival shift out of the local frame.
func referenceDecisions(t *testing.T, tn detTenant, totalRounds int64, cfg Config) []stream.Decision {
	t.Helper()
	sched, err := stream.New(stream.Config{Delta: cfg.Delta, Resources: cfg.Resources})
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	epoch := epochOf(tn)
	shift := epoch - tn.startRound
	var out []stream.Decision
	for local := int64(0); local < totalRounds-epoch; local++ {
		arrivals := tn.seq.Request(local + shift)
		jobs := make([]model.Job, len(arrivals))
		copy(jobs, arrivals)
		for i := range jobs {
			jobs[i].Arrival = local
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		dec, err := sched.Push(local, jobs)
		if err != nil {
			t.Fatalf("reference push for %s at local %d: %v", tn.name, local, err)
		}
		out = append(out, dec)
	}
	return out
}

// TestServiceDecisionsMatchBareScheduler is the end-to-end determinism
// property of the service: a seeded multi-tenant workload pushed through a
// 4-shard rrserve under concurrent, oddly-framed HTTP submissions yields,
// for every tenant, a decision stream byte-identical to a bare
// stream.Scheduler fed the same arrivals sequentially — whether every round
// ticks alone or the rounds without submissions tick as runs, the drain tail
// in one Tick(20).
func TestServiceDecisionsMatchBareScheduler(t *testing.T) {
	t.Run("tick-each-round", func(t *testing.T) { testServiceDecisionsMatchBareScheduler(t, nil) })
	t.Run("tick-runs", func(t *testing.T) { testServiceDecisionsMatchBareScheduler(t, &tickRuns{}) })
}

func testServiceDecisionsMatchBareScheduler(t *testing.T, runs *tickRuns) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	tenants := detFixture(t, 42)
	// Enough rounds past the last arrival for every delay bound (max 2^4) to
	// expire, so the streams include the drop tail.
	totalRounds := int64(20 + 5 + 20)
	driveServiceRuns(t, client, tenants, totalRounds, runs, nil)
	if runs != nil && runs.longest != 20 {
		t.Fatalf("the longest run ticked in one call has %d rounds, want the 20-round drain tail", runs.longest)
	}

	ring := newHashRing(cfg.Shards)
	for _, tn := range tenants {
		got, err := client.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("DecisionsRaw(%s): %v", tn.name, err)
		}
		want, err := MarshalResponse(&DecisionsResponse{
			Schema:    DecisionsSchema,
			Tenant:    tn.name,
			Shard:     ring.ShardOf(tn.name),
			Epoch:     epochOf(tn),
			Round:     totalRounds,
			Decisions: referenceDecisions(t, tn, totalRounds, cfg),
		})
		if err != nil {
			t.Fatalf("MarshalResponse: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s: service decisions diverge from bare scheduler\nservice:   %s\nreference: %s",
				tn.name, excerpt(got, want), excerpt(want, got))
		}
	}
}

// TestServiceMetricsMatchBareScheduler pins the scheduler metrics of a served
// run against an oracle rather than against the code itself: the determinism
// fixture goes through /v1/jobs and ticks, and each tenant's arrivals are
// replayed through a bare stream.Scheduler. The expected per-color drops,
// pending-age histogram and final queue depth come from the bare decisions,
// with each job's color and local arrival looked up in the tenant's
// sequence. The run stops before the last delay bounds expire, so jobs are
// still pending at the end.
func TestServiceMetricsMatchBareScheduler(t *testing.T) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16}
	_, client := newTestService(t, cfg)
	tenants := detFixture(t, 42)
	const totalRounds = 24
	driveService(t, client, tenants, totalRounds)

	reg := obs.NewRegistry()
	oracle, err := obs.NewSchedulerMetrics(reg)
	if err != nil {
		t.Fatal(err)
	}
	type pushedJob struct {
		color   model.Color
		arrival int64 // local round
	}
	var depth, drops, execs int64
	for _, tn := range tenants {
		epoch := epochOf(tn)
		shift := epoch - tn.startRound
		jobs := map[int64]pushedJob{}
		for local := int64(0); local < totalRounds-epoch; local++ {
			for _, j := range tn.seq.Request(local + shift) {
				jobs[j.ID] = pushedJob{color: j.Color, arrival: local}
				depth++
			}
		}
		for _, dec := range referenceDecisions(t, tn, totalRounds, cfg) {
			for _, id := range dec.Dropped {
				oracle.Drops.With(jobs[id].color.String()).Inc()
			}
			for _, ex := range dec.Executions {
				oracle.PendingAge.Observe(dec.Round - jobs[ex.JobID].arrival)
			}
			drops += int64(len(dec.Dropped))
			execs += int64(len(dec.Executions))
		}
	}
	depth -= drops + execs
	if drops == 0 || execs == 0 || depth == 0 {
		t.Fatalf("fixture resolves %d drops and %d executions and leaves %d pending; the oracle wants all three non-zero", drops, execs, depth)
	}
	want := reg.Snapshot()
	got, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}

	labels := 0
	for _, m := range want.Metrics {
		if m.Name != obs.MetricDrops {
			continue
		}
		labels++
		if v, ok := got.CounterWith(obs.MetricDrops, m.Label); !ok || v != m.Value {
			t.Errorf("%s{color=%s} = %d (present %v), oracle %d", obs.MetricDrops, m.Label, v, ok, m.Value)
		}
	}
	for _, m := range got.Metrics {
		if m.Name == obs.MetricDrops {
			labels--
		}
	}
	if labels != 0 {
		t.Errorf("%s: the service and the oracle label different color sets", obs.MetricDrops)
	}
	gh, ok := got.Histogram(obs.MetricPendingAge)
	wh, _ := want.Histogram(obs.MetricPendingAge)
	if !ok || gh.Count != wh.Count || gh.Sum != wh.Sum || len(gh.Buckets) != len(wh.Buckets) {
		t.Fatalf("%s: count %d sum %d over %d buckets, oracle count %d sum %d over %d buckets",
			obs.MetricPendingAge, gh.Count, gh.Sum, len(gh.Buckets), wh.Count, wh.Sum, len(wh.Buckets))
	}
	for i := range wh.Buckets {
		if gh.Buckets[i].Count != wh.Buckets[i].Count {
			t.Errorf("%s bucket %d: %d, oracle %d", obs.MetricPendingAge, i, gh.Buckets[i].Count, wh.Buckets[i].Count)
		}
	}
	if v, ok := got.Counter(obs.MetricQueueDepth); !ok || v != depth {
		t.Errorf("%s = %d (present %v), oracle %d", obs.MetricQueueDepth, v, ok, depth)
	}
}

// TestServiceDecisionsStableAcrossRuns re-runs the same fixture against a
// fresh service and demands byte-identical /v1/decisions responses — the
// service-level restatement of "decisions are a function of the input".
func TestServiceDecisionsStableAcrossRuns(t *testing.T) {
	cfg := Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true}
	run := func() map[string][]byte {
		svc, _, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer svc.Close()
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		client := NewClient(srv.URL)
		tenants := detFixture(t, 42)
		driveService(t, client, tenants, 45)
		out := map[string][]byte{}
		for _, tn := range tenants {
			raw, err := client.DecisionsRaw(tn.name)
			if err != nil {
				t.Fatalf("DecisionsRaw(%s): %v", tn.name, err)
			}
			out[tn.name] = raw
		}
		return out
	}
	first, second := run(), run()
	for name, a := range first {
		if !bytes.Equal(a, second[name]) {
			t.Fatalf("tenant %s: two identical runs produced different decision bytes", name)
		}
	}
}

// excerpt returns the neighborhood of the first byte where a and b differ,
// so a failure points at the divergence instead of dumping both documents.
func excerpt(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hi := i + 80
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("...%s... (diverges at byte %d of %d)", a[lo:hi], i, len(a))
}
