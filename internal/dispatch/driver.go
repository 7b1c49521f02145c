package dispatch

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rrsched/internal/serve"
)

// DriverConfig bounds the driver's repair loop: how many times one operation
// may be retried (each retry refreshing the placement table) and the wait
// between retries. The product is the driver's patience with a failover —
// it must exceed HeartbeatEvery × (MissBudget + 1) or a crash mid-operation
// surfaces as an error before the dispatcher has even declared the worker
// dead.
type DriverConfig struct {
	// Attempts per operation (>= 1). Default 100.
	Attempts int
	// RetryEvery is the wait between attempts. Default 100ms.
	RetryEvery time.Duration
	// Wire selects the wire format the driver's per-worker serve clients
	// speak. The zero value is the binary wire; WireJSON is the explicit
	// debugging format.
	Wire serve.WireMode
}

func (cfg DriverConfig) validate() DriverConfig {
	if cfg.Attempts < 1 {
		cfg.Attempts = 100
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = 100 * time.Millisecond
	}
	return cfg
}

// Batch is one tenant's submissions for one driver round.
type Batch struct {
	Tenant string
	Jobs   []serve.SubmitJob
}

// maxShardsInFlight caps how many shards one driver round drives at once.
// Shards share nothing until the round barrier, so the cap only bounds the
// driver's own connections and goroutines.
const maxShardsInFlight = 8

// Driver submits work through the dispatcher's placement table: each tenant's
// batches go to the worker holding the tenant's shard, and every failure —
// transport error, 421 misdirect, 503 drain — triggers a placement refresh
// and a retry. Submissions survive failovers because admission is idempotent
// (a resent batch that already landed answers 409, which counts as landed),
// and Round couples resubmission with per-shard ticking so a shard restored
// from a pre-admission checkpoint is re-fed the exact arrivals it lost. A
// round drives its shards concurrently: each tenant's decisions depend only
// on its own shard, so shards need no ordering before the round barrier.
//
// One driver instance assumes it is the only round-driver of the fleet
// (virtual time has a single clock); concurrent submitters are fine, a second
// ticker is not.
type Driver struct {
	dc  *Client
	cfg DriverConfig

	mu        sync.Mutex
	ring      serve.Ring // rebuilt whenever the placement shard count changes
	shards    int
	placement map[int]PlacementEntry
	clients   map[string]*serve.Client
	round     int64
	// synced records that the last Round confirmed every shard at round, on
	// its first attempt: every live shard and every stored checkpoint is at
	// round, so the next Round's first attempt need not read shard rounds.
	synced bool

	// sleep is time.Sleep unless a test injects a recorder.
	sleep func(time.Duration)
}

// NewDriver builds a driver over the dispatcher at dispatcherURL, reading the
// shard count (and, after a restart, the fleet's current round) from the
// placement table.
func NewDriver(dispatcherURL string, cfg DriverConfig) (*Driver, error) {
	d := &Driver{
		dc:        NewClient(dispatcherURL),
		cfg:       cfg.validate(),
		placement: map[int]PlacementEntry{},
		clients:   map[string]*serve.Client{},
		sleep:     time.Sleep,
	}
	p, err := d.dc.Placement()
	if err != nil {
		return nil, err
	}
	d.shards = len(p.Shards)
	ring, err := serve.NewRing(d.shards)
	if err != nil {
		return nil, err
	}
	d.ring = ring
	d.applyPlacement(p)
	// Adopt the fleet's round so a driver started against a running (or
	// restored) fleet continues its clock instead of restarting at zero. On a
	// fresh fleet every stored round is 0 and this is a no-op.
	for _, e := range p.Shards {
		if e.Round > d.round {
			d.round = e.Round
		}
	}
	return d, nil
}

// Shards returns the fleet's shard count as of the last placement refresh.
func (d *Driver) Shards() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.shards
}

// CurrentRound returns the driver's round counter (the next round to tick).
func (d *Driver) CurrentRound() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.round
}

// ShardOf returns the shard owning a tenant under the current ring.
func (d *Driver) ShardOf(tenant string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ring.ShardOf(tenant)
}

func (d *Driver) applyPlacement(p *PlacementResponse) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(p.Shards) != d.shards {
		// The fleet resharded: rebuild the ring and drop the stale table —
		// old shard indices name different tenant sets now.
		ring, err := serve.NewRing(len(p.Shards))
		if err != nil {
			return // hostile placement size; keep routing on the old table
		}
		d.ring = ring
		d.shards = len(p.Shards)
		d.placement = map[int]PlacementEntry{}
	}
	for _, e := range p.Shards {
		d.placement[e.Shard] = e
	}
}

// refresh re-reads the placement table. Errors are swallowed: the next
// operation retry surfaces persistent dispatcher unavailability.
func (d *Driver) refresh() {
	if p, err := d.dc.Placement(); err == nil {
		d.applyPlacement(p)
	}
}

// clientFor returns a serve client for the worker holding shard, or an error
// while the shard is unassigned (mid-failover). Clients are single-shot: the
// driver's repair loop owns retries, because a retry here must re-check
// placement first.
func (d *Driver) clientFor(shard int) (*serve.Client, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.placement[shard]
	if !ok || e.Addr == "" {
		return nil, fmt.Errorf("dispatch: shard %d is unassigned", shard)
	}
	c, ok := d.clients[e.Addr]
	if !ok {
		c = serve.NewClientWire(e.Addr, serve.SingleShot(), d.cfg.Wire)
		d.clients[e.Addr] = c
	}
	return c, nil
}

// Submit lands one batch: it retries through placement refreshes until the
// batch is admitted (fresh or duplicate) or the attempt budget is spent.
// Backpressure (429) is returned to the caller, not absorbed.
func (d *Driver) Submit(tenant string, jobs []serve.SubmitJob) (serve.SubmitOutcome, error) {
	req := &serve.SubmitRequest{Schema: serve.WireSchema, Tenant: tenant, Jobs: jobs}
	var lastErr error
	for attempt := 0; attempt < d.cfg.Attempts; attempt++ {
		if attempt > 0 {
			d.sleep(d.cfg.RetryEvery)
			d.refresh()
		}
		// Resolved per attempt: a refresh may have rebuilt the ring after a
		// fleet reshard, moving the tenant to a different shard index.
		shard := d.ShardOf(tenant)
		client, err := d.clientFor(shard)
		if err != nil {
			lastErr = err
			continue
		}
		out, err := client.Submit(req)
		if err != nil {
			lastErr = err
			continue
		}
		switch {
		case out.Landed(), out.Rejected:
			return out, nil
		case out.Misdirected, out.Refused:
			lastErr = fmt.Errorf("dispatch: shard %d moved (misdirected=%v refused=%v)", shard, out.Misdirected, out.Refused)
		default:
			lastErr = fmt.Errorf("dispatch: submit for tenant %q: unexpected outcome %+v", tenant, out)
		}
	}
	return serve.SubmitOutcome{}, fmt.Errorf("dispatch: submit for tenant %q failed after %d attempts: %w", tenant, d.cfg.Attempts, lastErr)
}

// shardRound reads a shard's current round from its owner's stats, verifying
// the owner actually has the shard open.
func (d *Driver) shardRound(shard int) (int64, error) {
	client, err := d.clientFor(shard)
	if err != nil {
		return 0, err
	}
	st, err := client.Stats()
	if err != nil {
		return 0, err
	}
	if shard >= len(st.PerShard) || !st.PerShard[shard].Open {
		return 0, fmt.Errorf("dispatch: shard %d is not open on its advertised owner", shard)
	}
	return st.PerShard[shard].Round, nil
}

// errPlacementChanged signals that the fleet's shard count moved under an
// in-flight round: the batch partition was computed against a ring that no
// longer exists and must be rebuilt before anything else is retried.
var errPlacementChanged = errors.New("dispatch: fleet shard count changed; re-partitioning")

// Round executes one scheduling round transactionally: every batch lands on
// its shard, then every shard ticks exactly once. If a worker dies anywhere
// in the protocol, the repair loop refreshes placement, resubmits the
// affected shard's batches (idempotent — landed batches answer 409), and
// re-ticks from the restored round. On return, every shard has advanced to
// the same next round with the round's arrivals admitted exactly once, and
// the dispatcher stores every shard's checkpoint at that round.
//
// Every attempt starts with one placement read, so a reshard that settled
// since the last round is partitioned for before anything lands or ticks. A
// fleet reshard concurrent with the round is survived the same way: the
// dispatcher only accepts a reshard at the round boundary (equal stored
// rounds), so any admissions this round had landed on the old topology are
// rolled back by the checkpoint transform; the driver detects the shard-count
// change, re-partitions every batch under the new ring, and replays the whole
// round from resubmission.
//
// When the previous Round confirmed every shard on its first attempt, this
// Round's first attempt ticks each shard without first reading its round:
// nothing else ticks the fleet, so every shard is still where that Round left
// it. Every retry, the first Round after NewDriver, and a Round after one
// that failed or re-partitioned read every shard's round before ticking, so
// a shard a failed Round already advanced is never ticked twice.
func (d *Driver) Round(batches []Batch) error {
	d.mu.Lock()
	target := d.round + 1
	synced := d.synced
	d.synced = false
	d.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < d.cfg.Attempts; attempt++ {
		if attempt > 0 {
			d.sleep(d.cfg.RetryEvery)
		}
		p, err := d.dc.Placement()
		if err != nil {
			lastErr = err
			continue
		}
		d.applyPlacement(p)
		err = d.roundOnce(batches, target, synced && attempt == 0)
		if err == nil {
			d.mu.Lock()
			d.round = target
			d.synced = attempt == 0
			d.mu.Unlock()
			return nil
		}
		if !errors.Is(err, errPlacementChanged) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("dispatch: round %d failed after %d attempts: %w", target, d.cfg.Attempts, lastErr)
}

// roundOnce partitions the round's batches under the current ring and drives
// every shard through the round at once, at most maxShardsInFlight at a time.
// It fails with errPlacementChanged once any shard sees the fleet's shard
// count move: the count is shared driver state, so the other shards see it at
// their next attempt and stop too, and the caller re-partitions. synced lets
// each shard's first attempt skip the read of its round (see Round).
func (d *Driver) roundOnce(batches []Batch, target int64, synced bool) error {
	d.mu.Lock()
	fleet := d.shards
	ring := d.ring
	d.mu.Unlock()

	perShard := make([][]Batch, fleet)
	for _, b := range batches {
		shard := ring.ShardOf(b.Tenant)
		perShard[shard] = append(perShard[shard], b)
	}
	errs := make([]error, fleet)
	slots := make(chan struct{}, maxShardsInFlight)
	var wg sync.WaitGroup
	for shard := 0; shard < fleet; shard++ {
		slots <- struct{}{}
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errs[shard] = d.roundShard(shard, fleet, perShard[shard], target, synced)
			<-slots
		}(shard)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if errors.Is(err, errPlacementChanged) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// roundShard drives one shard through one round: land the shard's batches,
// tick to target, and make sure the dispatcher's checkpoint store has reached
// target before reporting success. Every iteration restarts from
// resubmission, because a failed tick may mean the shard was restored from a
// checkpoint that predates the admissions — and keeping the store at target
// is what keeps restores tick-aligned to target-1 (admissions lost, resubmit
// fresh) or target (tick landed, only the response was lost). Without it, a
// tick whose checkpoint push failed would leave the live shard at target with
// the store at target-1; the driver would move on, and a crash before the
// next successful push would restore the shard two rounds behind the
// driver's counter, losing a round's arrivals for good.
//
// A tick that returns target needs no store check: the worker pushes the
// shard's checkpoint synchronously inside the tick and fails the tick when
// the dispatcher refuses or loses the push, so a tick that answers target has
// had its push at target accepted. A shard found already at target (its
// tick's response or push was lost) is confirmed against the store instead
// (confirmStored). With synced, the first attempt trusts the previous
// Round's confirmation that the shard sits at target-1 and skips reading its
// round; retries always read it.
func (d *Driver) roundShard(shard, fleet int, batches []Batch, target int64, synced bool) error {
	var lastErr error
	for attempt := 0; attempt < d.cfg.Attempts; attempt++ {
		if attempt > 0 {
			d.sleep(d.cfg.RetryEvery)
			d.refresh()
		}
		if d.Shards() != fleet {
			return errPlacementChanged
		}
		if lastErr = d.landBatches(shard, batches); lastErr != nil {
			continue
		}
		cur := target - 1
		if attempt > 0 || !synced {
			if cur, lastErr = d.shardRound(shard); lastErr != nil {
				continue
			}
		}
		if cur >= target {
			if lastErr = d.confirmStored(shard, target); lastErr != nil {
				continue
			}
			return nil
		}
		client, err := d.clientFor(shard)
		if err != nil {
			lastErr = err
			continue
		}
		round, err := client.TickShard(shard, int(target-cur))
		if err != nil {
			lastErr = err
			continue
		}
		if round != target {
			lastErr = fmt.Errorf("dispatch: shard %d ticked to round %d, want %d", shard, round, target)
			continue
		}
		return nil
	}
	return fmt.Errorf("dispatch: round %d on shard %d failed after %d attempts: %w", target, shard, d.cfg.Attempts, lastErr)
}

// confirmStored verifies the dispatcher's stored checkpoint for shard has
// reached target, asking the shard's owner to re-push (sync) when it lags —
// the repair for a tick that advanced the shard but whose checkpoint push was
// lost in flight. roundShard calls it only for a shard it found already at
// target; a tick that returns target has had its push accepted.
func (d *Driver) confirmStored(shard int, target int64) error {
	stored, err := d.storedRound(shard)
	if err != nil {
		return err
	}
	if stored >= target {
		return nil
	}
	client, err := d.clientFor(shard)
	if err != nil {
		return err
	}
	if _, err := client.SyncShard(shard); err != nil {
		return fmt.Errorf("dispatch: syncing shard %d checkpoint: %w", shard, err)
	}
	stored, err = d.storedRound(shard)
	if err != nil {
		return err
	}
	if stored < target {
		return fmt.Errorf("dispatch: shard %d checkpoint store at round %d after sync, want %d", shard, stored, target)
	}
	return nil
}

// storedRound reads the round of the dispatcher's stored checkpoint for shard
// from a fresh placement table (refreshing the driver's copy as a side
// effect).
func (d *Driver) storedRound(shard int) (int64, error) {
	p, err := d.dc.Placement()
	if err != nil {
		return 0, err
	}
	d.applyPlacement(p)
	if shard >= len(p.Shards) {
		return 0, fmt.Errorf("dispatch: placement table has %d shards, no shard %d", len(p.Shards), shard)
	}
	return p.Shards[shard].Round, nil
}

// landBatches admits every batch on the shard's current owner, single-shot —
// the caller's repair loop owns retries and placement refreshes.
func (d *Driver) landBatches(shard int, batches []Batch) error {
	if len(batches) == 0 {
		return nil
	}
	client, err := d.clientFor(shard)
	if err != nil {
		return err
	}
	for _, b := range batches {
		out, err := client.Submit(&serve.SubmitRequest{Schema: serve.WireSchema, Tenant: b.Tenant, Jobs: b.Jobs})
		if err != nil {
			return err
		}
		if !out.Landed() {
			return fmt.Errorf("dispatch: batch for tenant %q not landed: %+v", b.Tenant, out)
		}
	}
	return nil
}

// DecisionsRaw fetches a tenant's recorded decision stream from the worker
// holding its shard, retrying through placement refreshes.
func (d *Driver) DecisionsRaw(tenant string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < d.cfg.Attempts; attempt++ {
		if attempt > 0 {
			d.sleep(d.cfg.RetryEvery)
			d.refresh()
		}
		// Per attempt: a reshard moves the tenant's shard index with the ring.
		shard := d.ShardOf(tenant)
		client, err := d.clientFor(shard)
		if err != nil {
			lastErr = err
			continue
		}
		raw, err := client.DecisionsRaw(tenant)
		if err != nil {
			lastErr = err
			continue
		}
		return raw, nil
	}
	return nil, fmt.Errorf("dispatch: decisions for tenant %q failed after %d attempts: %w", tenant, d.cfg.Attempts, lastErr)
}
