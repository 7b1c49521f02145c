package perf

import (
	"fmt"
	"regexp"

	"rrsched/internal/core"
	"rrsched/internal/model"
	"rrsched/internal/obs"
	"rrsched/internal/queue"
	"rrsched/internal/sim"
	"rrsched/internal/stream"
	"rrsched/internal/sweep"
	"rrsched/internal/workload"
)

// Scenario is one named benchmark: Setup builds the inputs once (excluded
// from measurement) and returns the op executed per benchmark iteration.
// Rounds is the number of simulated rounds — or unit operations — one op
// performs; all metrics are normalized by it.
type Scenario struct {
	Name   string
	Doc    string
	Rounds int64
	Setup  func() (func() error, error)
}

// Scenarios returns the fixed benchmark matrix, in report order: the engine
// round loop and the ΔLRU-EDF decision path at n ∈ {8, 64, 512} over
// short/long-delay color mixes, the queue primitives, the streaming
// scheduler's push loop and checkpoint round-trip (JSON and binary), the
// sweep fan-out substrate (pinned to one worker so the figure is dispatch
// overhead, not parallel speedup), the incremental checkpoint store (full vs
// dirty cuts at a dirty fraction, fault-in, manifest codec, the
// dispatcher's fold of a fleet-shaped checkpoint push, and the decision
// log's append path), and the
// wire-codec matrix (JSON vs binary submit encode/decode at batch sizes
// 1/16/256, normalized per job).
func Scenarios() []Scenario {
	scs := []Scenario{
		engineScenario("engine/n8", 8, 6, 1, 4),
		engineScenario("engine/n64", 64, 48, 1, 6),
		engineScenario("engine/n512", 512, 256, 1, 6),
		obsEngineScenario("engine/n64/obs", 64, 48, 1, 6),
		policyScenario("policy/dlru-edf/n8", 8, 6, 1, 4),
		policyScenario("policy/dlru-edf/n64", 64, 48, 1, 6),
		policyScenario("policy/dlru-edf/n512", 512, 256, 1, 6),
		ringScenario(),
		bucketScenario(),
		streamPushScenario("stream/push", "streaming scheduler round loop: Push per round plus final Drain",
			16, 8, func() ([][]model.Job, error) { return streamJobs(benchRounds), nil }),
		streamPushScenario("stream/push/n128", "streaming scheduler round loop on one dense tenant (n=128, 96 colors, delays 4..64, load 0.6)",
			denseDelta, 128, func() ([][]model.Job, error) { return denseStreamJobs(benchRounds) }),
		streamCheckpointScenario(),
		streamBinaryCheckpointScenario(),
		sweepScenario(),
	}
	scs = append(scs, ckptScenarios()...)
	scs = append(scs, ckptFoldScenario(), ckptDeclogAppendScenario())
	scs = append(scs, wireScenarios()...)
	return scs
}

// Select returns the scenarios whose names match the regular expression
// (every scenario for an empty pattern).
func Select(pattern string) ([]Scenario, error) {
	all := Scenarios()
	if pattern == "" {
		return all, nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("perf: bad scenario pattern %q: %w", pattern, err)
	}
	var out []Scenario
	for _, s := range all {
		if re.MatchString(s.Name) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("perf: no scenario matches %q", pattern)
	}
	return out, nil
}

// benchRounds is the arrival-round count of the simulated scenarios: long
// enough to reach steady state, short enough that one op stays well under a
// millisecond at n=8.
const benchRounds = 256

// benchWorkload builds the seeded short/long-delay color mix used by the
// engine and policy scenarios: delay bounds 2^minExp..2^maxExp, moderate
// load, fixed seed so every run measures the identical instance.
func benchWorkload(colors int, minExp, maxExp uint) (*model.Sequence, error) {
	return workload.RandomBatched(workload.RandomConfig{
		Seed:        1,
		Delta:       16,
		Colors:      colors,
		Rounds:      benchRounds,
		MinDelayExp: minExp,
		MaxDelayExp: maxExp,
		Load:        0.6,
	})
}

// cyclePolicy is a near-free policy for the engine-only scenarios: it
// rotates a window of Slots() colors through the universe every 8 rounds, so
// the engine's reconfiguration and execution phases do real work while the
// decision itself costs almost nothing.
type cyclePolicy struct {
	universe []model.Color
	slots    int
	buf      []model.Color
}

func (p *cyclePolicy) Name() string { return "cycle" }
func (p *cyclePolicy) Reset(env sim.Env) {
	p.universe = env.Seq.Colors()
	p.slots = env.Slots()
	p.buf = make([]model.Color, 0, p.slots)
}
func (p *cyclePolicy) DropPhase(sim.View, map[model.Color]int) {}
func (p *cyclePolicy) ArrivalPhase(sim.View, []model.Job)      {}
func (p *cyclePolicy) Target(v sim.View) []model.Color {
	p.buf = p.buf[:0]
	if len(p.universe) == 0 {
		return p.buf
	}
	off := int(v.Round() / 8)
	for i := 0; i < p.slots && i < len(p.universe); i++ {
		p.buf = append(p.buf, p.universe[(off+i)%len(p.universe)])
	}
	return p.buf
}

// runScenario builds a simulation scenario around the given policy factory.
func runScenario(name, doc string, n, colors int, minExp, maxExp uint, mk func() sim.Policy) Scenario {
	return Scenario{
		Name: name,
		Doc:  doc,
		// One op simulates rounds [0, Horizon()]; Horizon is bounded by
		// benchRounds + the largest delay bound, reported exactly below.
		Rounds: 0, // filled by Setup precomputation in Scenarios wrapper below
		Setup: func() (func() error, error) {
			seq, err := benchWorkload(colors, minExp, maxExp)
			if err != nil {
				return nil, err
			}
			env := sim.Env{Seq: seq, Resources: n, Replication: 2, Speed: 1}
			p := mk()
			return func() error {
				res, err := sim.Run(env, p)
				if err != nil {
					return err
				}
				if res.Executed+res.Dropped != seq.NumJobs() {
					return fmt.Errorf("job conservation violated: %d executed + %d dropped != %d jobs",
						res.Executed, res.Dropped, seq.NumJobs())
				}
				return nil
			}, nil
		},
	}
}

func engineScenario(name string, n, colors int, minExp, maxExp uint) Scenario {
	s := runScenario(name, "engine round loop (drop/arrival/reconfigure/execute) under a near-free rotating policy",
		n, colors, minExp, maxExp, func() sim.Policy { return &cyclePolicy{} })
	s.Rounds = scenarioHorizon(colors, minExp, maxExp)
	return s
}

// obsEngineScenario is the instrumented half of the bare-vs-instrumented
// pair: the same engine round loop as engineScenario, with a full Observer
// (scheduler metrics, span tracer, counting event sink) attached. Its figure
// against the bare twin is the all-in observability overhead; the bare
// scenarios' regression gate guards the nil-observer fast path.
func obsEngineScenario(name string, n, colors int, minExp, maxExp uint) Scenario {
	s := Scenario{
		Name:   name,
		Doc:    "engine round loop with the full observability layer attached (metrics + tracer + event sink)",
		Rounds: scenarioHorizon(colors, minExp, maxExp),
		Setup: func() (func() error, error) {
			seq, err := benchWorkload(colors, minExp, maxExp)
			if err != nil {
				return nil, err
			}
			o, err := obs.NewObserver()
			if err != nil {
				return nil, err
			}
			o.Tracer = obs.NewTracer(obs.DefaultTracerCap)
			o.Sink = &obs.CountingSink{}
			env := sim.Env{Seq: seq, Resources: n, Replication: 2, Speed: 1, Obs: o}
			p := &cyclePolicy{}
			return func() error {
				res, err := sim.Run(env, p)
				if err != nil {
					return err
				}
				if res.Executed+res.Dropped != seq.NumJobs() {
					return fmt.Errorf("job conservation violated: %d executed + %d dropped != %d jobs",
						res.Executed, res.Dropped, seq.NumJobs())
				}
				return nil
			}, nil
		},
	}
	return s
}

func policyScenario(name string, n, colors int, minExp, maxExp uint) Scenario {
	s := runScenario(name, "full ΔLRU-EDF decision path (tracker bookkeeping, timestamp and EDF ranking) per round",
		n, colors, minExp, maxExp, func() sim.Policy { return core.NewDeltaLRUEDF() })
	s.Rounds = scenarioHorizon(colors, minExp, maxExp)
	return s
}

// scenarioHorizon returns the exact number of simulated rounds of the seeded
// scenario workload (Horizon()+1), so per-round normalization is accurate.
func scenarioHorizon(colors int, minExp, maxExp uint) int64 {
	seq, err := benchWorkload(colors, minExp, maxExp)
	if err != nil {
		// The fixed configurations are statically valid; a failure here is
		// reported by Setup when the scenario actually runs.
		return 1
	}
	return seq.Horizon() + 1
}

const queueOps = 4096

func ringScenario() Scenario {
	return Scenario{
		Name:   "queue/ring",
		Doc:    "FIFO ring buffer push/pop cycles (the per-color pending queues)",
		Rounds: queueOps,
		Setup: func() (func() error, error) {
			job := model.Job{ID: 1, Color: 3, Arrival: 0, Delay: 8}
			var r queue.Ring[model.Job]
			return func() error {
				for i := 0; i < queueOps; i++ {
					r.Push(job)
					if i%4 == 3 {
						for j := 0; j < 4; j++ {
							r.Pop()
						}
					}
				}
				if r.Len() != 0 {
					return fmt.Errorf("ring not drained: %d left", r.Len())
				}
				return nil
			}, nil
		},
	}
}

func bucketScenario() Scenario {
	return Scenario{
		Name:   "queue/bucket",
		Doc:    "monotone bucket-queue push/PopUpTo cycles (the deadline index)",
		Rounds: queueOps,
		Setup: func() (func() error, error) {
			const perRound = 16
			return func() error {
				q := queue.NewBucketQueue[int]()
				popped := 0
				for r := int64(0); r < queueOps/perRound; r++ {
					for i := 0; i < perRound; i++ {
						q.Push(r+4, i)
					}
					popped += len(q.PopUpTo(r, perRound))
				}
				for q.Len() > 0 {
					q.PopMin()
					popped++
				}
				if popped != queueOps {
					return fmt.Errorf("bucket queue lost items: popped %d of %d", popped, queueOps)
				}
				return nil
			}, nil
		},
	}
}

// streamJobs builds the per-round arrivals of the streaming scenarios: a
// rotating color with delay 8, two jobs per round.
func streamJobs(rounds int64) [][]model.Job {
	out := make([][]model.Job, rounds)
	id := int64(0)
	for r := int64(0); r < rounds; r++ {
		for j := 0; j < 2; j++ {
			out[r] = append(out[r], model.Job{ID: id, Color: model.Color(r % 8), Arrival: r, Delay: 8})
			id++
		}
	}
	return out
}

// denseStreamJobs builds the per-round arrivals of one dense tenant, the
// shape the end-to-end benchmark's dense workload serves: 96 colors with
// delay bounds 4..64, load 0.6, general (unbatched) arrivals under Δ = 4.
// About 58 jobs arrive per round, so ΔLRU-EDF ranks a large eligible set
// every round.
func denseStreamJobs(rounds int64) ([][]model.Job, error) {
	seq, err := workload.RandomGeneral(workload.RandomConfig{
		Seed: 1, Delta: denseDelta, Colors: 96, Rounds: rounds,
		MinDelayExp: 2, MaxDelayExp: 6, Load: 0.6,
	})
	if err != nil {
		return nil, err
	}
	seq = seq.Canonical()
	out := make([][]model.Job, rounds)
	for r := range out {
		out[r] = seq.Request(int64(r))
	}
	return out, nil
}

const denseDelta = 4

// streamPushScenario measures the streaming scheduler's round loop: a fresh
// scheduler, one Push per round of the given arrivals, then a final Drain.
func streamPushScenario(name, doc string, delta int64, n int, arrivalsOf func() ([][]model.Job, error)) Scenario {
	return Scenario{
		Name:   name,
		Doc:    doc,
		Rounds: benchRounds,
		Setup: func() (func() error, error) {
			arrivals, err := arrivalsOf()
			if err != nil {
				return nil, err
			}
			return func() error {
				s, err := stream.New(stream.Config{Delta: delta, Resources: n})
				if err != nil {
					return err
				}
				for r := int64(0); r < benchRounds; r++ {
					if _, err := s.Push(r, arrivals[r]); err != nil {
						return err
					}
				}
				_, err = s.Drain()
				return err
			}, nil
		},
	}
}

func streamCheckpointScenario() Scenario {
	return checkpointRoundTripScenario("stream/checkpoint",
		"Snapshot + Restore round-trip of a warmed streaming scheduler (rounds_per_op = 1: figures are per checkpoint)",
		func(s *stream.Scheduler) error {
			snap, err := s.Snapshot()
			if err != nil {
				return err
			}
			_, err = stream.Restore(snap)
			return err
		})
}

func streamBinaryCheckpointScenario() Scenario {
	return checkpointRoundTripScenario("stream/checkpoint/binary",
		"AppendBinary + RestoreBinary round-trip of the stream/checkpoint scheduler (rounds_per_op = 1: figures are per checkpoint)",
		func(s *stream.Scheduler) error {
			img, err := s.AppendBinary(nil)
			if err != nil {
				return err
			}
			_, err = stream.RestoreBinary(img)
			return err
		})
}

// checkpointRoundTripScenario measures one checkpoint round trip of a
// scheduler warmed on the stream/push input.
func checkpointRoundTripScenario(name, doc string, roundTrip func(*stream.Scheduler) error) Scenario {
	return Scenario{
		Name:   name,
		Doc:    doc,
		Rounds: 1,
		Setup: func() (func() error, error) {
			s, err := stream.New(stream.Config{Delta: 16, Resources: 8})
			if err != nil {
				return nil, err
			}
			for r, jobs := range streamJobs(benchRounds) {
				if _, err := s.Push(int64(r), jobs); err != nil {
					return nil, err
				}
			}
			return func() error { return roundTrip(s) }, nil
		},
	}
}

const sweepTasks = 256

func sweepScenario() Scenario {
	return Scenario{
		Name:   "sweep/fanout",
		Doc:    "sweep.Map dispatch overhead over trivial tasks, pinned to one worker for stable figures",
		Rounds: sweepTasks,
		Setup: func() (func() error, error) {
			inputs := sweep.Seeds(sweepTasks)
			return func() error {
				out, err := sweep.Map(1, inputs, func(seed int64) (int64, error) {
					// A tiny deterministic mix so the task body is not
					// optimized away; the figure of interest is dispatch.
					x := uint64(seed)*2654435761 + 1
					for i := 0; i < 32; i++ {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
					}
					return int64(x >> 1), nil
				})
				if err != nil {
					return err
				}
				if len(out) != sweepTasks {
					return fmt.Errorf("sweep returned %d results, want %d", len(out), sweepTasks)
				}
				return nil
			}, nil
		},
	}
}
