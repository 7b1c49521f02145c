package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"rrsched/internal/dispatch"
	"rrsched/internal/model"
	"rrsched/internal/serve"
	"rrsched/internal/stream"
	"rrsched/internal/workload"
)

// TestMain doubles as the worker entrypoint for subprocess tests: when
// RRWORKER_EXEC=1 the test binary IS rrworker, running run() with the flags
// from RRWORKER_ARGS. The chaos test below execs itself this way so the
// worker it SIGKILLs is a real OS process, not a goroutine.
func TestMain(m *testing.M) {
	if os.Getenv("RRWORKER_EXEC") == "1" {
		sigs := make(chan os.Signal, 2)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		if err := run(strings.Fields(os.Getenv("RRWORKER_ARGS")), os.Stdout, sigs, nil); err != nil {
			fmt.Fprintln(os.Stderr, "rrworker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workerProc is one rrworker subprocess.
type workerProc struct {
	cmd *exec.Cmd
	out *bytes.Buffer
}

func startWorkerProc(t *testing.T, name, dispatcherURL string) *workerProc {
	t.Helper()
	w := &workerProc{cmd: exec.Command(os.Args[0]), out: &bytes.Buffer{}}
	w.cmd.Env = append(os.Environ(),
		"RRWORKER_EXEC=1",
		"RRWORKER_ARGS=-name "+name+" -dispatcher "+dispatcherURL+" -addr 127.0.0.1:0",
	)
	w.cmd.Stdout = w.out
	w.cmd.Stderr = w.out
	if err := w.cmd.Start(); err != nil {
		t.Fatalf("starting worker %s: %v", name, err)
	}
	return w
}

const (
	hbEvery    = 50 * time.Millisecond
	missBudget = 3
	// failoverBound is the generous end-to-end budget for one failover:
	// detection takes at most (missBudget + 0.5) heartbeat intervals, the
	// survivor's pickup one more, and the rest is slack for -race and loaded
	// CI machines.
	failoverBound = 40 * hbEvery

	arrivalRounds = 16
	totalRounds   = 34 // arrivals plus a drain tail past the max delay bound (2^4)
)

type chaosTenant struct {
	name string
	seq  *model.Sequence
}

func chaosFixture(t *testing.T) []chaosTenant {
	t.Helper()
	names := []string{"alpha", "beta", "gamma", "delta"}
	tenants := make([]chaosTenant, len(names))
	for i, name := range names {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed:        900 + int64(i),
			Delta:       4,
			Colors:      4 + i%2,
			Rounds:      arrivalRounds,
			MinDelayExp: 2,
			MaxDelayExp: 4,
			Load:        0.7,
		})
		if err != nil {
			t.Fatalf("workload for %s: %v", name, err)
		}
		tenants[i] = chaosTenant{name: name, seq: seq.Canonical()}
	}
	return tenants
}

func batchesAt(tenants []chaosTenant, round int64) []dispatch.Batch {
	var out []dispatch.Batch
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
		out = append(out, dispatch.Batch{Tenant: tn.name, Jobs: jobs})
	}
	return out
}

// submitToHolders lands each batch through its holder's /v1/jobs, found
// through the dispatcher's placement (read again before every resend, while a
// shard moves), so the admissions live only in the holder's memory. A round
// call cannot stand in: its push would make them durable.
func submitToHolders(t *testing.T, dispatcherURL string, batches []dispatch.Batch) {
	t.Helper()
	dc := dispatch.NewClient(dispatcherURL)
	for _, b := range batches {
		req := &serve.SubmitRequest{Schema: serve.WireSchema, Tenant: b.Tenant, Jobs: b.Jobs}
		for attempt := 0; ; attempt++ {
			p, err := dc.Placement()
			var out serve.SubmitOutcome
			if err == nil {
				var ring serve.Ring
				if ring, err = serve.NewRing(len(p.Shards)); err == nil {
					out, err = serve.NewClient(p.Shards[ring.ShardOf(b.Tenant)].Addr).Submit(req)
				}
			}
			if err == nil && out.Landed() {
				break
			}
			if attempt == 100 {
				t.Fatalf("pre-kill submit %s: out=%+v err=%v", b.Tenant, out, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// referenceRaw is the uninterrupted single-node truth: the tenant's arrivals
// through a bare stream.Scheduler, wrapped in the decisions envelope the
// fleet serves.
func referenceRaw(t *testing.T, tn chaosTenant, shard int) []byte {
	t.Helper()
	epoch := int64(0)
	for epoch < tn.seq.NumRounds() && len(tn.seq.Request(epoch)) == 0 {
		epoch++
	}
	sched, err := stream.New(stream.Config{Delta: 4, Resources: 8})
	if err != nil {
		t.Fatalf("stream.New: %v", err)
	}
	var decs []stream.Decision
	for local := int64(0); local < totalRounds-epoch; local++ {
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
		Round:     totalRounds,
		Decisions: decs,
	})
	if err != nil {
		t.Fatalf("MarshalResponse: %v", err)
	}
	return raw
}

// TestWorkerSIGKILLFailover is the headline chaos property of the dispatcher
// tier, with real processes: two rrworker subprocesses serve a four-shard
// fleet; one is SIGKILLed right after landing a round's admissions (stranding
// state newer than its last checkpoint); the dispatcher detects the missed
// heartbeats, fences the leases, and regrants the shards to the survivor from
// stored checkpoints; the driver's repair loop resubmits and re-ticks; and
// every tenant's merged decision stream is byte-identical to an uninterrupted
// single-node run. The failover must complete within a bounded number of
// heartbeat intervals.
func TestWorkerSIGKILLFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses and waits out real heartbeat timeouts")
	}
	d, err := dispatch.New(dispatch.Config{
		Service:        dispatch.ServiceConfig{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 16, RecordDecisions: true},
		HeartbeatEvery: hbEvery,
		MissBudget:     missBudget,
	})
	if err != nil {
		t.Fatalf("dispatch.New: %v", err)
	}
	defer d.Close()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	w1 := startWorkerProc(t, "w1", srv.URL)
	w2 := startWorkerProc(t, "w2", srv.URL)
	defer func() {
		_ = w1.cmd.Process.Kill() // idempotent teardown; the test kills w1 itself
		_ = w1.cmd.Wait()         // reap; exit status asserted in the body
		_ = w2.cmd.Process.Kill() // teardown of the graceful path's failure case
		_ = w2.cmd.Wait()         // reap; exit status asserted in the body
	}()

	waitFor(t, "full assignment", 10*time.Second, func() bool { return d.Stats().Assigned == 4 })

	driver, err := dispatch.NewDriver(srv.URL, dispatch.DriverConfig{Attempts: 600, RetryEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewDriver: %v", err)
	}
	tenants := chaosFixture(t)

	const killRound = 6
	for r := int64(0); r < totalRounds; r++ {
		batches := batchesAt(tenants, r)
		if r == killRound {
			// Mid-burst: this round's admissions are landed and then the
			// worker dies before ticking them — the restored checkpoints
			// predate the admissions, and only the driver's resubmission
			// brings them back.
			submitToHolders(t, srv.URL, batches)
			if err := w1.cmd.Process.Kill(); err != nil {
				t.Fatalf("SIGKILL w1: %v", err)
			}
			killed := time.Now()
			if err := driver.Round(batches); err != nil {
				t.Fatalf("repair round %d: %v\nw1 output:\n%s", r+1, err, w1.out)
			}
			if took := time.Since(killed); took > failoverBound {
				t.Fatalf("failover took %v, budget %v (%.1f heartbeat intervals)",
					took, failoverBound, float64(took)/float64(hbEvery))
			}
			continue
		}
		if err := driver.Round(batches); err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
	}

	// Merged decision streams must be byte-identical to the uninterrupted
	// single-node reference.
	for _, tn := range tenants {
		got, err := driver.DecisionsRaw(tn.name)
		if err != nil {
			t.Fatalf("DecisionsRaw(%s): %v", tn.name, err)
		}
		want := referenceRaw(t, tn, driver.ShardOf(tn.name))
		if !bytes.Equal(got, want) {
			t.Fatalf("tenant %s: decision stream diverges after SIGKILL failover\nfleet: %.200s\nref:   %.200s",
				tn.name, got, want)
		}
	}

	// The dead worker was reaped by SIGKILL, the fleet reconverged on the
	// survivor, and the failover left its mark in the metrics.
	if err := w1.cmd.Wait(); err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("w1 exit: %v, want killed by signal", err)
	}
	st := d.Stats()
	if st.Assigned != 4 {
		t.Fatalf("fleet did not reconverge: %+v", st)
	}
	for _, w := range st.Workers {
		if w.Worker == "w2" && w.Held != 4 {
			t.Fatalf("survivor holds %d shards, want 4: %+v", w.Held, st.Workers)
		}
	}
	if n, _ := d.Metrics().Counter("dispatch_failovers_total"); n < 2 {
		t.Fatalf("dispatch_failovers_total = %d, want >= 2 (both of w1's shards)", n)
	}

	// The survivor drains gracefully on SIGTERM and exits 0.
	if err := w2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM w2: %v", err)
	}
	if err := w2.cmd.Wait(); err != nil {
		t.Fatalf("w2 graceful exit: %v\noutput:\n%s", err, w2.out)
	}
	waitFor(t, "handback after SIGTERM", 10*time.Second, func() bool { return d.Stats().Assigned == 0 })
}

func waitFor(t *testing.T, what string, limit time.Duration, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunFlagValidation pins the CLI contract.
func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dispatcher", "http://127.0.0.1:1"}, &out, nil, nil); err == nil || !strings.Contains(err.Error(), "-name") {
		t.Fatalf("missing -name: err = %v", err)
	}
	if err := run([]string{"-name", "w", "extra"}, &out, nil, nil); err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("stray args: err = %v", err)
	}
}
