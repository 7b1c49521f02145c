package main

// spec is one workload: the stack's shape and the generator of its inputs.
// README.md records why each workload exists.
type spec struct {
	name      string
	fleet     bool // dispatcher + two workers + Driver instead of one serve.Service
	shards    int
	resources int
	delta     int64
	// warmup is how many rounds run untimed first: long enough for every
	// delay pipeline to fill and for the schedule's cost per job to settle
	// (ΔLRU-EDF starts from unconfigured resources), and on paging for every
	// tenant to have been evicted and faulted back in.
	warmup int64
	// setups is how many times a run boots the stack before its warm-up;
	// setup_s is the median over every boot of the run.
	setups int
	// gapBoots is how many throwaway stacks an untraced run boots and stops
	// between two blocks of its timed window. A boot takes well under a
	// millisecond, so its time tracks the host's state of the moment;
	// boots spread over the window sample the same stretch of host time as
	// the other figures, where boots in one burst would sample an instant.
	gapBoots int
	// Paging only: state dir, decision-log mode, eviction and periodic cuts.
	stateful   bool
	evictAfter int64
	cutEvery   int64
	gen        func(seed int64) (*inputs, error)
}

// Resource count n of the small-tenant workloads, and the reconfiguration
// cost Δ of every workload.
const (
	smallN = 8
	delta4 = 4
)

var workloads = map[string]*spec{
	// Many light tenants: per-request HTTP, wire and shard admission dominate
	// the round; the scheduler and the chunk store are idle.
	"ingest": {
		name: "ingest", shards: 2, resources: smallN, delta: delta4, warmup: 128, setups: 31, gapBoots: 10,
		gen: func(seed int64) (*inputs, error) {
			return randomInputs(seed, 256, 4, 256, 0.3, 2, 5, delta4)
		},
	},
	// Few heavy tenants on many resources: the shard tick (ΔLRU-EDF over 96
	// colors for every tenant) dominates; requests are few and large.
	"dense": {
		name: "dense", shards: 2, resources: 128, delta: delta4, warmup: 128, setups: 31, gapBoots: 10,
		gen: func(seed int64) (*inputs, error) {
			return randomInputs(seed, 16, 96, 256, 0.6, 2, 6, delta4)
		},
	},
	// A fixed universe of 1000 tenants, each returning every 32 rounds with a
	// burst: every return faults a tenant in from the chunk store, every idle
	// stretch evicts it, and every 32nd round cuts a checkpoint. Run by hand,
	// not listed in BENCHMARK.json: its figures move with the host's page
	// cache and filesystem by nearly the bounds between two sets of runs.
	"paging": {
		name: "paging", shards: 2, resources: smallN, delta: delta4, warmup: 160, setups: 15,
		stateful: true, evictAfter: 8, cutEvery: 32,
		gen: func(seed int64) (*inputs, error) {
			return pagingInputs(seed, 1000, 32, 8, 4, delta4), nil
		},
	},
	// The dispatcher/worker tier: every round is one serial Driver.Round of
	// loopback calls plus one synchronous checkpoint push per shard.
	"fleet": {
		name: "fleet", fleet: true, shards: 4, resources: smallN, delta: delta4, warmup: 128, setups: 3,
		gen: func(seed int64) (*inputs, error) {
			return randomInputs(seed, 16, 8, 256, 0.6, 2, 5, delta4)
		},
	},
}
