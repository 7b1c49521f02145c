package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rrsched/internal/ckptstore"
	"rrsched/internal/obs"
)

// noPush is a checkpoint hook that accepts every push and keeps none: it makes
// a service hosted for tests that do not look at the pushes.
func noPush(int, int64, []byte) error { return nil }

func hostedConfig() Config {
	return Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 10,
		RecordDecisions: true, OnShardCheckpoint: noPush}
}

// TestHostedLifecycle pins the open/close state machine: a closed shard
// misdirects submissions and round calls, an open shard serves, and closing
// returns a checkpoint that reopens elsewhere with identical state. It ends
// with the round call's refusals, each of which leaves the shard as it was.
func TestHostedLifecycle(t *testing.T) {
	svc, _, err := New(hostedConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClientPolicy(srv.URL, SingleShot())

	// Both shards closed: submissions misdirect, whichever shard the tenant
	// hashes to.
	out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "alpha",
		Jobs: []SubmitJob{{ID: 0, Color: 0, Delay: 4}}})
	if err != nil || !out.Misdirected {
		t.Fatalf("submit to closed shard: out=%+v err=%v", out, err)
	}
	if got := svc.OpenShards(); len(got) != 0 {
		t.Fatalf("OpenShards on a fresh hosted service = %v", got)
	}

	// Open both shards fresh; the submission now lands.
	for i := 0; i < 2; i++ {
		round, err := svc.OpenShard(i, nil)
		if err != nil || round != 0 {
			t.Fatalf("OpenShard(%d): round=%d err=%v", i, round, err)
		}
	}
	if _, err := svc.OpenShard(0, nil); err == nil {
		t.Fatal("double open accepted")
	}
	out, err = client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "alpha",
		Jobs: []SubmitJob{{ID: 0, Color: 0, Delay: 4}}})
	if err != nil || !out.Accepted {
		t.Fatalf("submit to open shard: out=%+v err=%v", out, err)
	}
	shard := svc.ShardFor("alpha")
	if r, err := client.TickShard(&RoundRequest{Schema: WireSchema, Shard: shard, Shards: 2, Target: 3}); err != nil || r != 3 {
		t.Fatalf("TickShard to 3: r=%d err=%v", r, err)
	}

	// Close the tenant's shard: the next submission misdirects again, a
	// round call reports ErrMisdirected, and the checkpoint carries the
	// tenant.
	data, err := svc.CloseShard(shard)
	if err != nil {
		t.Fatalf("CloseShard: %v", err)
	}
	if !strings.Contains(string(data), "alpha") {
		t.Fatalf("checkpoint does not mention the tenant: %.200s", data)
	}
	if out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "alpha",
		Jobs: []SubmitJob{{ID: 1, Color: 0, Delay: 4}}}); err != nil || !out.Misdirected {
		t.Fatalf("submit after close: out=%+v err=%v", out, err)
	}
	if _, err := client.TickShard(&RoundRequest{Schema: WireSchema, Shard: shard, Shards: 2, Target: 4}); !errors.Is(err, ErrMisdirected) {
		t.Fatalf("TickShard on closed shard: err=%v", err)
	}
	if _, err := svc.CloseShard(shard); err == nil {
		t.Fatal("double close accepted")
	}

	// Reopen from the checkpoint: the shard resumes at its round with the
	// tenant installed and the recorded decisions intact.
	round, err := svc.OpenShard(shard, data)
	if err != nil || round != 3 {
		t.Fatalf("reopen: round=%d err=%v", round, err)
	}
	dr, err := client.Decisions("alpha")
	if err != nil {
		t.Fatalf("Decisions after reopen: %v", err)
	}
	if len(dr.Decisions) != 3 {
		t.Fatalf("restored %d recorded decisions, want 3", len(dr.Decisions))
	}

	// Round-call refusals, on the reopened shard at round 3 and its closed
	// sibling. A refused call changes nothing: the shard keeps its round,
	// backlog and tenant set, so no batch was admitted and no round ticked.
	other := 1 - shard
	if _, err := svc.CloseShard(other); err != nil {
		t.Fatalf("CloseShard(%d): %v", other, err)
	}
	foreign := ""
	for i := 0; foreign == ""; i++ {
		if name := fmt.Sprintf("tenant-%d", i); svc.ShardFor(name) == other {
			foreign = name
		}
	}
	one := []SubmitJob{{ID: 100, Color: 0, Delay: 4}}
	flood := make([]SubmitJob, hostedConfig().Watermark+1)
	for i := range flood {
		flood[i] = SubmitJob{ID: int64(100 + i), Color: 0, Delay: 4}
	}
	frame := func(shards int, target int64, batches ...SubmitRequest) []byte {
		t.Helper()
		f, err := AppendRoundBinary(nil, &RoundRequest{Schema: WireSchema, Shard: shard, Shards: shards, Target: target, Batches: batches})
		if err != nil {
			t.Fatalf("AppendRoundBinary: %v", err)
		}
		return f
	}
	alpha := SubmitRequest{Schema: WireSchema, Tenant: "alpha", Jobs: one}
	valid := frame(2, 4, alpha)
	closed, err := AppendRoundBinary(nil, &RoundRequest{Schema: WireSchema, Shard: other, Shards: 2, Target: 4})
	if err != nil {
		t.Fatalf("AppendRoundBinary: %v", err)
	}
	post := func(body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/round", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("building request: %v", err)
		}
		req.Header.Set("Content-Type", ContentTypeBinary)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatalf("POST /v1/round: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	refusals := []struct {
		name  string
		shard int
		body  []byte
		want  int
	}{
		{"malformed frame", shard, valid[:len(valid)-1], http.StatusBadRequest},
		{"tenant of another shard", shard, frame(2, 4, alpha, SubmitRequest{Schema: WireSchema, Tenant: foreign, Jobs: one}), http.StatusMisdirectedRequest},
		// The batches map to the shard under the worker's ring too: only the
		// count shows the round was partitioned for another fleet shape.
		{"stale shard count", shard, frame(3, 4, alpha), http.StatusMisdirectedRequest},
		{"batch over the watermark", shard, frame(2, 4, SubmitRequest{Schema: WireSchema, Tenant: "alpha", Jobs: flood}), http.StatusTooManyRequests},
		{"shard past the target", shard, frame(2, 2, alpha), http.StatusConflict},
		{"closed shard", other, closed, http.StatusMisdirectedRequest},
	}
	for _, row := range refusals {
		before := svc.Stats().PerShard[row.shard]
		if got := post(row.body); got != row.want {
			t.Errorf("%s: status %d, want %d", row.name, got, row.want)
		}
		if after := svc.Stats().PerShard[row.shard]; after.Round != before.Round || after.Backlog != before.Backlog ||
			after.Tenants != before.Tenants || after.Accepted != before.Accepted || after.Open != before.Open {
			t.Errorf("%s: refused call changed shard %d: %+v -> %+v", row.name, row.shard, before, after)
		}
	}

	// An answered call is timed as one submit per batch and one tick, and
	// counted as one frame of its codec; the JSON twin serves the same call.
	counts := func() [4]int64 {
		t.Helper()
		snap, err := svc.MergedMetrics()
		if err != nil {
			t.Fatalf("MergedMetrics: %v", err)
		}
		submits, _ := snap.Histogram(MetricSubmitNs)
		ticks, _ := snap.Histogram(MetricTickNs)
		bin, _ := snap.Counter(obs.MetricWireFramesBinary)
		js, _ := snap.Counter(obs.MetricWireFramesJSON)
		return [4]int64{submits.Count, ticks.Count, bin, js}
	}
	before := counts()
	if got := post(valid); got != http.StatusOK {
		t.Fatalf("valid round call after the refusals: status %d", got)
	}
	if st := svc.Stats().PerShard[shard]; st.Round != 4 || st.Backlog != 0 || st.Accepted == 0 {
		t.Fatalf("after the valid round call: %+v, want round 4 with the batch admitted and ticked", st)
	}
	if got, want := counts(), [4]int64{before[0] + 1, before[1] + 1, before[2] + 1, before[3]}; got != want {
		t.Errorf("binary round call: submits, ticks, binary and JSON frames = %v, want %v", got, want)
	}
	before = counts()
	next := &RoundRequest{Schema: WireSchema, Shard: shard, Shards: 2, Target: 5,
		Batches: []SubmitRequest{{Schema: WireSchema, Tenant: "alpha", Jobs: []SubmitJob{{ID: 200, Color: 0, Delay: 4}}}}}
	if r, err := NewClientWire(srv.URL, SingleShot(), WireJSON).TickShard(next); err != nil || r != 5 {
		t.Fatalf("JSON round call: r=%d err=%v", r, err)
	}
	if got, want := counts(), [4]int64{before[0] + 1, before[1] + 1, before[2], before[3] + 1}; got != want {
		t.Errorf("JSON round call: submits, ticks, binary and JSON frames = %v, want %v", got, want)
	}
}

// TestHostedShardsTickIndependently pins the failover-critical property:
// shards on one host may sit at different rounds, and per-shard ticks realign
// them without touching the others.
func TestHostedShardsTickIndependently(t *testing.T) {
	svc, _, err := New(hostedConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	if _, err := svc.OpenShard(0, nil); err != nil {
		t.Fatalf("open 0: %v", err)
	}
	if r, err := svc.TickShard(&RoundRequest{Shard: 0, Shards: 2, Target: 5}); err != nil || r != 5 {
		t.Fatalf("TickShard(0 to 5): r=%d err=%v", r, err)
	}
	// Shard 1 opens later (as a migrated shard would) at round 0.
	if _, err := svc.OpenShard(1, nil); err != nil {
		t.Fatalf("open 1: %v", err)
	}
	st := svc.Stats()
	if st.PerShard[0].Round != 5 || st.PerShard[1].Round != 0 {
		t.Fatalf("rounds = %d/%d, want 5/0", st.PerShard[0].Round, st.PerShard[1].Round)
	}
	// Each round call advances its shard from its own counter and leaves
	// the other where it is.
	if r, err := svc.TickShard(&RoundRequest{Shard: 1, Shards: 2, Target: 2}); err != nil || r != 2 {
		t.Fatalf("TickShard(1 to 2): r=%d err=%v", r, err)
	}
	if r, err := svc.TickShard(&RoundRequest{Shard: 0, Shards: 2, Target: 7}); err != nil || r != 7 {
		t.Fatalf("TickShard(0 to 7): r=%d err=%v", r, err)
	}
	st = svc.Stats()
	if st.PerShard[0].Round != 7 || st.PerShard[1].Round != 2 {
		t.Fatalf("rounds after the round calls = %d/%d, want 7/2", st.PerShard[0].Round, st.PerShard[1].Round)
	}
	// Realign shard 1.
	if r, err := svc.TickShard(&RoundRequest{Shard: 1, Shards: 2, Target: 7}); err != nil || r != 7 {
		t.Fatalf("TickShard(1 to 7): r=%d err=%v", r, err)
	}
}

// TestHostedCheckpointHook pins the synchronous checkpoint contract: by the
// time a round call returns, the hook has observed the shard's post-tick
// state, and the hook's bundles — folded the way the dispatcher folds them —
// equal the shard's close handoff and restore decision-identically.
func TestHostedCheckpointHook(t *testing.T) {
	var mu sync.Mutex
	latest := map[int][]byte{}
	pools := map[int]*ckptstore.MemStore{}
	rounds := map[int]int64{}
	cfg := hostedConfig()
	cfg.OnShardCheckpoint = func(shard int, round int64, data []byte) error {
		mu.Lock()
		defer mu.Unlock()
		folded, m, pool, err := FoldBundle(data, pools[shard])
		if err != nil {
			return err
		}
		if m.Shard != shard || m.Round != round {
			return fmt.Errorf("hook for shard %d round %d got a manifest for shard %d round %d", shard, round, m.Shard, m.Round)
		}
		latest[shard], pools[shard] = folded, pool
		rounds[shard] = round
		return nil
	}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL)
	for i := 0; i < 2; i++ {
		if _, err := svc.OpenShard(i, nil); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	for r := int64(0); r < 6; r++ {
		out, err := client.Submit(&SubmitRequest{Schema: WireSchema, Tenant: "alpha",
			Jobs: []SubmitJob{{ID: r, Color: int32(r % 3), Delay: 4}}})
		if err != nil || !out.Accepted {
			t.Fatalf("submit: out=%+v err=%v", out, err)
		}
		for i := 0; i < 2; i++ {
			if _, err := client.TickShard(&RoundRequest{Schema: WireSchema, Shard: i, Shards: 2, Target: r + 1}); err != nil {
				t.Fatalf("round call for shard %d to %d: %v", i, r+1, err)
			}
			mu.Lock()
			got := rounds[i]
			mu.Unlock()
			if got != r+1 {
				t.Fatalf("after the round call to %d: hook saw shard %d at round %d", r+1, i, got)
			}
		}
	}

	// The hook's folded state equals the folded close handoff, and restoring
	// it into a second hosted service reproduces the recorded decision
	// stream.
	shard := svc.ShardFor("alpha")
	want, err := client.DecisionsRaw("alpha")
	if err != nil {
		t.Fatalf("DecisionsRaw: %v", err)
	}
	handoff, err := svc.CloseShard(shard)
	if err != nil {
		t.Fatalf("CloseShard: %v", err)
	}
	direct, _, _, err := FoldBundle(handoff, nil)
	if err != nil {
		t.Fatalf("FoldBundle(handoff): %v", err)
	}
	mu.Lock()
	hookBytes := latest[shard]
	mu.Unlock()
	if !bytes.Equal(direct, hookBytes) {
		t.Fatal("folded hook checkpoint diverges from the folded close handoff")
	}

	svc2, _, err := New(hostedConfig())
	if err != nil {
		t.Fatalf("New second host: %v", err)
	}
	defer svc2.Close()
	if _, err := svc2.OpenShard(shard, hookBytes); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	srv2 := httptest.NewServer(svc2.Handler())
	defer srv2.Close()
	got, err := NewClient(srv2.URL).DecisionsRaw("alpha")
	if err != nil {
		t.Fatalf("DecisionsRaw on new host: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("migrated decision stream diverges\ngot:  %.300s\nwant: %.300s", got, want)
	}
}

// TestHostedServiceRefusesTick pins that a hosted service advances only
// through round calls: Tick fails and POST /v1/tick answers 503, as a classic
// service answers a round call, with no shard open and with one open ahead
// of the other, and neither moves the service round or any shard's round.
func TestHostedServiceRefusesTick(t *testing.T) {
	svc, _, err := New(hostedConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	refused := func(want [2]int64) {
		t.Helper()
		if _, err := svc.Tick(1); err == nil {
			t.Error("Tick on a hosted service succeeded")
		}
		if got := httpStatus(t, srv, http.MethodPost, "/v1/tick", nil); got != http.StatusServiceUnavailable {
			t.Errorf("POST /v1/tick on a hosted service: status %d, want %d", got, http.StatusServiceUnavailable)
		}
		st := svc.Stats()
		if got := [2]int64{st.PerShard[0].Round, st.PerShard[1].Round}; st.Round != want[0] || got != want {
			t.Errorf("after the refused ticks: service round %d, shard rounds %v, want %d and %v", st.Round, got, want[0], want)
		}
	}
	refused([2]int64{0, 0})
	if _, err := svc.OpenShard(0, nil); err != nil {
		t.Fatalf("open: %v", err)
	}
	if r, err := svc.TickShard(&RoundRequest{Shard: 0, Shards: 2, Target: 3}); err != nil || r != 3 {
		t.Fatalf("TickShard(0 to 3): r=%d err=%v", r, err)
	}
	refused([2]int64{3, 0})
}

// TestHostedSyncShard pins the checkpoint-repair path: when a tick's hook push
// fails, the shard has still advanced and has forgotten its acks; a round call
// naming the round the shard reached re-offers the current state to the hook
// without ticking, as a self-contained bundle that folds to the same state as
// the close handoff.
func TestHostedSyncShard(t *testing.T) {
	var mu sync.Mutex
	fail := false
	var gotRound int64 = -1
	var gotBytes []byte
	calls := 0
	cfg := hostedConfig()
	cfg.OnShardCheckpoint = func(shard int, round int64, data []byte) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if fail {
			return errors.New("injected push failure")
		}
		gotRound = round
		gotBytes = append([]byte(nil), data...)
		return nil
	}
	svc, _, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClientPolicy(srv.URL, SingleShot())

	// A round call against a closed shard misdirects (classic 421 semantics).
	repair := &RoundRequest{Schema: WireSchema, Shard: 0, Shards: 2, Target: 1}
	if _, err := client.TickShard(repair); !errors.Is(err, ErrMisdirected) {
		t.Fatalf("sync on closed shard: err=%v", err)
	}
	if _, err := svc.OpenShard(0, nil); err != nil {
		t.Fatalf("open: %v", err)
	}

	// A tick whose hook push fails surfaces the error but keeps the round.
	mu.Lock()
	fail = true
	mu.Unlock()
	if _, err := svc.TickShard(repair); err == nil {
		t.Fatal("tick with failing hook succeeded")
	}
	if st := svc.Stats(); st.PerShard[0].Round != 1 {
		t.Fatalf("shard round after failed-push tick = %d, want 1", st.PerShard[0].Round)
	}
	mu.Lock()
	if gotRound != -1 {
		mu.Unlock()
		t.Fatalf("hook recorded round %d despite failing", gotRound)
	}
	fail = false
	mu.Unlock()

	// Resending the call closes the gap: the shard is at its target, so the
	// hook now holds round 1 without further ticking, in a bundle that needs
	// nothing the receiver might have dropped.
	if r, err := client.TickShard(repair); err != nil || r != 1 {
		t.Fatalf("sync: r=%d err=%v", r, err)
	}
	mu.Lock()
	round, bytesGot := gotRound, gotBytes
	mu.Unlock()
	if round != 1 {
		t.Fatalf("hook saw round %d after sync, want 1", round)
	}
	if st := svc.Stats(); st.PerShard[0].Round != 1 {
		t.Fatalf("sync ticked the shard: round = %d, want 1", st.PerShard[0].Round)
	}
	resent, _, _, err := FoldBundle(bytesGot, nil)
	if err != nil {
		t.Fatalf("sync bundle is not self-contained after a lost push: %v", err)
	}
	handoff, err := svc.CloseShard(0)
	if err != nil {
		t.Fatalf("CloseShard: %v", err)
	}
	direct, _, _, err := FoldBundle(handoff, nil)
	if err != nil {
		t.Fatalf("FoldBundle(handoff): %v", err)
	}
	if !bytes.Equal(direct, resent) {
		t.Fatal("sync checkpoint diverges from the close handoff")
	}

	// The round call is hosted-only.
	classic, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 8})
	if err != nil {
		t.Fatalf("New classic: %v", err)
	}
	defer classic.Close()
	if _, err := classic.TickShard(&RoundRequest{Shard: 0, Shards: 1, Target: 0}); err == nil {
		t.Error("round call accepted on a classic service")
	}
}

// TestHostedConfigValidation pins the config cross-checks.
func TestHostedConfigValidation(t *testing.T) {
	bad := []Config{
		{Shards: 1, Resources: 8, Delta: 4, Watermark: 8, OnShardCheckpoint: noPush, StateDir: "x"},
		{Shards: 1, Resources: 8, Delta: 4, Watermark: 8, OnShardCheckpoint: noPush, RoundEvery: 1},
	}
	for i, cfg := range bad {
		if _, _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// Open/close/per-shard ticks are hosted-only.
	svc, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	if _, err := svc.OpenShard(0, nil); err == nil {
		t.Error("OpenShard accepted on a classic service")
	}
	if _, err := svc.CloseShard(0); err == nil {
		t.Error("CloseShard accepted on a classic service")
	}
	if _, err := svc.TickShard(&RoundRequest{Shard: 0, Shards: 1, Target: 1}); err == nil {
		t.Error("TickShard accepted on a classic service")
	}
	hosted, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 8, OnShardCheckpoint: noPush})
	if err != nil {
		t.Fatalf("New hosted: %v", err)
	}
	defer hosted.Close()
	if _, err := hosted.OpenShard(5, nil); err == nil {
		t.Error("OpenShard accepted an out-of-range shard")
	}
	if _, err := hosted.CloseShard(5); err == nil {
		t.Error("CloseShard accepted an out-of-range shard")
	}
}
