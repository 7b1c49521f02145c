package dispatch

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrsched/internal/chaos"
	"rrsched/internal/model"
	"rrsched/internal/serve"
	"rrsched/internal/stream"
	"rrsched/internal/workload"
)

// failoverTenant is one tenant of the end-to-end fixture: a seeded arrival
// sequence replayed through the dispatched fleet and through a bare
// stream.Scheduler reference.
type failoverTenant struct {
	name string
	seq  *model.Sequence
}

const (
	foArrivalRounds = 20
	foTotalRounds   = 40 // arrivals plus a drain tail past the max delay bound (2^4)
)

func failoverFixture(t *testing.T, seed int64) []failoverTenant {
	t.Helper()
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	tenants := make([]failoverTenant, len(names))
	for i, name := range names {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed:        seed + int64(i),
			Delta:       4,
			Colors:      4 + i%3,
			Rounds:      foArrivalRounds,
			MinDelayExp: 2,
			MaxDelayExp: 4,
			Load:        0.7,
		})
		if err != nil {
			t.Fatalf("workload for %s: %v", name, err)
		}
		tenants[i] = failoverTenant{name: name, seq: seq.Canonical()}
	}
	return tenants
}

// batchesAt assembles the fixture's submissions for one driver round.
func batchesAt(tenants []failoverTenant, round int64) []Batch {
	var out []Batch
	for _, tn := range tenants {
		if round >= tn.seq.NumRounds() {
			continue
		}
		arrivals := tn.seq.Request(round)
		if len(arrivals) == 0 {
			continue
		}
		jobs := make([]serve.SubmitJob, len(arrivals))
		for i, j := range arrivals {
			jobs[i] = serve.SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay}
		}
		out = append(out, Batch{Tenant: tn.name, Jobs: jobs})
	}
	return out
}

// submitToHolders lands each batch through its holder's /v1/jobs, found
// through the driver's placement table, refreshing it and resending while a
// shard moves. Tests use it to land a round's batches and then kill a holder
// before the round ticks, so the shard holds admissions newer than any stored
// checkpoint. A round call cannot stand in: its push would make them durable.
func submitToHolders(t *testing.T, driver *Driver, batches []Batch) {
	t.Helper()
	for _, b := range batches {
		req := &serve.SubmitRequest{Schema: serve.WireSchema, Tenant: b.Tenant, Jobs: b.Jobs}
		for attempt := 0; ; attempt++ {
			if attempt > 0 {
				time.Sleep(20 * time.Millisecond)
				driver.refresh()
			}
			client, err := driver.clientFor(driver.ShardOf(b.Tenant))
			var out serve.SubmitOutcome
			if err == nil {
				out, err = client.Submit(req)
			}
			if err == nil && out.Landed() {
				break
			}
			if attempt == 100 {
				t.Fatalf("pre-kill submit %s: out=%+v err=%v", b.Tenant, out, err)
			}
		}
	}
}

// referenceRaw computes the expected /v1/decisions bytes for one tenant: the
// arrivals replayed through a bare stream.Scheduler at tenant-local rounds,
// wrapped in the same response envelope the shard produces.
func referenceRaw(t *testing.T, tn failoverTenant, shard int, svc ServiceConfig) []byte {
	t.Helper()
	// The tenant's epoch is the shard round of its first accepted submission;
	// with the driver landing round r's arrivals while shards sit at round r,
	// that is the first sequence round with arrivals.
	epoch := int64(0)
	for epoch < tn.seq.NumRounds() && len(tn.seq.Request(epoch)) == 0 {
		epoch++
	}
	sched, err := stream.New(stream.Config{Delta: svc.Delta, Resources: svc.Resources})
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	var decs []stream.Decision
	for local := int64(0); local < foTotalRounds-epoch; local++ {
		var jobs []model.Job
		if seqRound := local + epoch; seqRound < tn.seq.NumRounds() {
			arrivals := tn.seq.Request(seqRound)
			jobs = make([]model.Job, len(arrivals))
			copy(jobs, arrivals)
		}
		for i := range jobs {
			jobs[i].Arrival = local
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		dec, err := sched.Push(local, jobs)
		if err != nil {
			t.Fatalf("reference push for %s at local %d: %v", tn.name, local, err)
		}
		decs = append(decs, dec)
	}
	raw, err := serve.MarshalResponse(&serve.DecisionsResponse{
		Schema:    serve.DecisionsSchema,
		Tenant:    tn.name,
		Shard:     shard,
		Epoch:     epoch,
		Round:     foTotalRounds,
		Decisions: decs,
	})
	if err != nil {
		t.Fatalf("MarshalResponse: %v", err)
	}
	return raw
}

// startFleet boots an in-process dispatcher plus two workers and waits for
// every shard to be assigned.
func startFleet(t *testing.T) (*Dispatcher, *Worker, *Worker, *Driver, string) {
	t.Helper()
	d, err := New(Config{
		Service:        ServiceConfig{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true},
		HeartbeatEvery: 50 * time.Millisecond,
		MissBudget:     2,
	})
	if err != nil {
		t.Fatalf("New dispatcher: %v", err)
	}
	t.Cleanup(d.Close)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	w1, err := StartWorker("w1", srv.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker w1: %v", err)
	}
	t.Cleanup(w1.Kill)
	w2, err := StartWorker("w2", srv.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker w2: %v", err)
	}
	t.Cleanup(w2.Kill)

	waitAssigned(t, d, 4)

	driver, err := NewDriver(srv.URL, DriverConfig{Attempts: 400, RetryEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	return d, w1, w2, driver, srv.URL
}

// waitAssigned polls until n shards are assigned (or fails after 10s).
func waitAssigned(t *testing.T, d *Dispatcher, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := d.Stats(); st.Assigned == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("placement never reached %d assigned shards: %+v", n, d.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verifyStreams compares every tenant's served decision stream against the
// bare-scheduler reference, byte for byte.
func verifyStreams(t *testing.T, driver *Driver, tenants []failoverTenant, svc ServiceConfig) {
	t.Helper()
	for _, tn := range tenants {
		got, err := driver.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("DecisionsRaw(%s): %v", tn.name, err)
		}
		want := referenceRaw(t, tn, driver.ShardOf(tn.name), svc)
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s: decision stream diverges from bare scheduler\nfleet:     %s\nreference: %s",
				tn.name, diffExcerpt(got, want), diffExcerpt(want, got))
		}
	}
}

// diffExcerpt shows the neighborhood of the first divergent byte.
func diffExcerpt(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hi := i-80, i+80
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("...%s... (diverges at byte %d of %d)", a[lo:hi], i, len(a))
}

// TestFailoverPreservesDecisionStreams is the tentpole property, in-process:
// a two-worker fleet drives a seeded multi-tenant workload; one worker is
// killed abruptly right after landing a round's admissions (the worst case —
// those admissions postdate its last checkpoint and die with it); the driver's
// repair loop waits out failure detection, resubmits, and re-ticks; and every
// tenant's final decision stream is byte-identical to a bare stream.Scheduler
// fed the same arrivals on a single node.
func TestFailoverPreservesDecisionStreams(t *testing.T) {
	d, w1, w2, driver, baseURL := startFleet(t)
	svc := d.cfg.Service
	tenants := failoverFixture(t, 42)

	// A seeded process-fault scenario: kills (and one respawn) at
	// deterministic rounds, so the run reproduces exactly.
	faults, err := chaos.KillSchedule(3, 2, 2, 5, foArrivalRounds)
	if err != nil {
		t.Fatalf("KillSchedule: %v", err)
	}
	live := []*Worker{w1, w2}
	nextName := 3
	fi := 0
	for r := int64(0); r < foTotalRounds; r++ {
		batches := batchesAt(tenants, r)
		if fi < len(faults) && faults[fi].Round == r {
			f := faults[fi]
			fi++
			// Land this round's batches, then kill the victim before the
			// tick: its shards now hold admissions newer than any checkpoint.
			submitToHolders(t, driver, batches)
			v := f.Victim % len(live)
			live[v].Kill()
			live = append(live[:v], live[v+1:]...)
			if f.Respawn || len(live) == 0 {
				w, err := StartWorker(fmt.Sprintf("w%d", nextName), baseURL, "127.0.0.1:0", io.Discard)
				if err != nil {
					t.Fatalf("respawning worker: %v", err)
				}
				nextName++
				t.Cleanup(w.Kill)
				live = append(live, w)
			}
		}
		if err := driver.Round(batches); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}

	verifyStreams(t, driver, tenants, svc)

	snap := d.Metrics()
	if n, _ := snap.Counter("dispatch_failovers_total"); n < 1 {
		t.Fatalf("dispatch_failovers_total = %d after %d kills, want >= 1", n, len(faults))
	}
	if st := d.Stats(); st.Assigned != 4 {
		t.Fatalf("fleet did not reconverge: %+v", st)
	}
}

// TestGracefulHandoffPreservesDecisionStreams drains a worker mid-run via
// Close: every held shard is handed back with a final checkpoint and regranted
// to the survivor, with no failure detection involved and no decision
// divergence.
func TestGracefulHandoffPreservesDecisionStreams(t *testing.T) {
	d, _, w2, driver, _ := startFleet(t)
	svc := d.cfg.Service
	tenants := failoverFixture(t, 7)

	const drainRound = 8
	for r := int64(0); r < foTotalRounds; r++ {
		if r == drainRound {
			w2.Close()
		}
		if err := driver.Round(batchesAt(tenants, r)); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}

	verifyStreams(t, driver, tenants, svc)

	// The survivor ends up holding the whole fleet.
	waitAssigned(t, d, 4)
	for _, w := range d.Stats().Workers {
		if w.Worker == "w1" && w.Held != 4 {
			t.Fatalf("survivor holds %d shards, want 4: %+v", w.Held, d.Stats().Workers)
		}
	}
}

// TestFailoverWithPushesInFlight kills a worker while checkpoint pushes for
// two shards on different workers are in flight at once. The workers push
// through a proxy that, in the fault round, holds shard A's push until shard
// B's arrives and holds both until A's worker is gone; then both go on to
// the dispatcher. A's tick never answers the driver, its push still lands,
// and every tenant's decision stream stays byte-identical to a bare
// scheduler's, so no acknowledged admission was lost.
func TestFailoverWithPushesInFlight(t *testing.T) {
	d, err := New(Config{
		Service:        ServiceConfig{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true},
		HeartbeatEvery: 50 * time.Millisecond,
		MissBudget:     2,
	})
	if err != nil {
		t.Fatalf("New dispatcher: %v", err)
	}
	t.Cleanup(d.Close)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	var armed atomic.Bool
	var shardA, shardB int
	aIn, bIn, killed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var aOnce, bOnce sync.Once
	// hold marks one faulted push in flight and keeps it there until the
	// other is in flight too and A's worker is dead. A driver that ticks
	// shards one at a time never gets both pushes in flight; the bound turns
	// that into a failure instead of a hang.
	hold := func(mine, other chan struct{}) {
		close(mine)
		select {
		case <-other:
			<-killed
		case <-time.After(10 * time.Second):
			t.Error("checkpoint pushes for shards A and B were never in flight together")
		}
	}
	proxy := checkpointProxy(t, srv.URL, func(push *CheckpointPush) bool {
		if !armed.Load() {
			return false
		}
		switch push.Shard {
		case shardA:
			aOnce.Do(func() { hold(aIn, bIn) })
		case shardB:
			bOnce.Do(func() { hold(bIn, aIn) })
		}
		return false
	})
	w1, err := StartWorker("w1", proxy.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker w1: %v", err)
	}
	t.Cleanup(w1.Kill)
	w2, err := StartWorker("w2", proxy.URL, "127.0.0.1:0", io.Discard)
	if err != nil {
		t.Fatalf("StartWorker w2: %v", err)
	}
	t.Cleanup(w2.Kill)
	waitAssigned(t, d, 4)

	driver, err := NewDriver(srv.URL, DriverConfig{Attempts: 400, RetryEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	tenants := failoverFixture(t, 23)
	const faultRound = 9
	for r := int64(0); r < foTotalRounds; r++ {
		if r != faultRound {
			if err := driver.Round(batchesAt(tenants, r)); err != nil {
				t.Fatalf("round %d: %v", r+1, err)
			}
			continue
		}
		// A loaded host can miss a heartbeat and move shards; wait until
		// each worker holds one again.
		deadline := time.Now().Add(10 * time.Second)
		for {
			shardA, shardB = -1, -1
			for _, e := range d.Placement().Shards {
				switch {
				case e.Worker == "w1" && shardA < 0:
					shardA = e.Shard
				case e.Worker == "w2" && shardB < 0:
					shardB = e.Shard
				}
			}
			if shardA >= 0 && shardB >= 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("placement never split the fleet across both workers: %+v", d.Placement().Shards)
			}
			time.Sleep(10 * time.Millisecond)
		}
		armed.Store(true)
		// The killer waits until both pushes are held, kills A's worker,
		// and releases the pushes once its listener refuses connections.
		killerDone := make(chan struct{})
		go func() {
			defer close(killerDone)
			for _, in := range []chan struct{}{aIn, bIn} {
				select {
				case <-in:
				case <-time.After(10 * time.Second):
					return
				}
			}
			dead := make(chan struct{})
			go func() {
				defer close(dead)
				w1.Kill()
			}()
			host := strings.TrimPrefix(w1.Addr(), "http://")
			for {
				c, err := net.DialTimeout("tcp", host, 100*time.Millisecond)
				if err != nil {
					break
				}
				_ = c.Close()
				time.Sleep(time.Millisecond)
			}
			close(killed)
			<-dead
		}()
		if err := driver.Round(batchesAt(tenants, r)); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		<-killerDone
		armed.Store(false)
	}

	verifyStreams(t, driver, tenants, d.cfg.Service)
	if n, _ := d.Metrics().Counter("dispatch_failovers_total"); n < 1 {
		t.Fatalf("dispatch_failovers_total = %d after the kill, want >= 1", n)
	}
}
