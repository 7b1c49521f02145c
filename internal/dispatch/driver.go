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
// and Round sends each shard's batches inside the call that ticks it, so a
// shard restored from a pre-admission checkpoint is re-fed the exact arrivals
// it lost. A round drives its shards concurrently: each tenant's decisions
// depend only on its own shard, so shards need no ordering before the round
// barrier.
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

// errPlacementChanged signals that the fleet's shard count moved under an
// in-flight round: the batch partition was computed against a ring that no
// longer exists and must be rebuilt before anything else is retried.
var errPlacementChanged = errors.New("dispatch: fleet shard count changed; re-partitioning")

// Round executes one scheduling round transactionally: every batch lands on
// its shard, then every shard ticks exactly once. Each shard gets one round
// call (serve.Client.TickShard) with its batches and the target round, which
// answers only once the shard's checkpoint at the target is stored. On
// return, every shard has advanced to the same next round with the round's
// arrivals admitted exactly once.
//
// Every attempt starts with one placement read, so a reshard that settled
// since the last round is partitioned for before anything lands or ticks. A
// fleet reshard concurrent with the round is survived the same way: the
// dispatcher only accepts a reshard at the round boundary (equal stored
// rounds), so any admissions this round had landed on the old topology are
// rolled back by the checkpoint transform; a worker rebuilt for the new count
// refuses a call that names the old one before admitting or ticking
// anything, and the driver re-partitions and replays the whole round.
func (d *Driver) Round(batches []Batch) error {
	d.mu.Lock()
	target := d.round + 1
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
		err = d.roundOnce(batches, target)
		if err == nil {
			d.mu.Lock()
			d.round = target
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
// count move; the other shards see it at their next attempt and stop too.
func (d *Driver) roundOnce(batches []Batch, target int64) error {
	d.mu.Lock()
	fleet := d.shards
	ring := d.ring
	d.mu.Unlock()

	reqs := make([]serve.RoundRequest, fleet)
	for shard := range reqs {
		reqs[shard] = serve.RoundRequest{Schema: serve.WireSchema, Shard: shard, Shards: fleet, Target: target}
	}
	for _, b := range batches {
		req := &reqs[ring.ShardOf(b.Tenant)]
		req.Batches = append(req.Batches, serve.SubmitRequest{Schema: serve.WireSchema, Tenant: b.Tenant, Jobs: b.Jobs})
	}
	errs := make([]error, fleet)
	slots := make(chan struct{}, maxShardsInFlight)
	var wg sync.WaitGroup
	for shard := 0; shard < fleet; shard++ {
		slots <- struct{}{}
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errs[shard] = d.roundShard(&reqs[shard])
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

// roundShard sends one shard's round call to the shard's owner until a call
// answers the target, refreshing placement before every resend. The call is
// idempotent, so it is resent unchanged: landed batches answer 409 inside it,
// a shard restored one round short is re-fed and ticked, and a shard whose
// tick landed but whose response or push was lost only pushes. So the store
// stays tick-aligned, and a restored shard resumes at target-1 or target.
func (d *Driver) roundShard(req *serve.RoundRequest) error {
	var lastErr error
	for attempt := 0; attempt < d.cfg.Attempts; attempt++ {
		if attempt > 0 {
			d.sleep(d.cfg.RetryEvery)
			d.refresh()
		}
		if d.Shards() != req.Shards {
			return errPlacementChanged
		}
		client, err := d.clientFor(req.Shard)
		if err != nil {
			lastErr = err
			continue
		}
		round, err := client.TickShard(req)
		if err != nil {
			lastErr = err
			continue
		}
		if round != req.Target {
			lastErr = fmt.Errorf("dispatch: shard %d ticked to round %d, want %d", req.Shard, round, req.Target)
			continue
		}
		return nil
	}
	return fmt.Errorf("dispatch: round %d on shard %d failed after %d attempts: %w", req.Target, req.Shard, d.cfg.Attempts, lastErr)
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
