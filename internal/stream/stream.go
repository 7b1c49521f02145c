// Package stream provides the incremental (truly online) interface to the
// paper's full stack. The batch API (reduce.RunVarBatch) consumes a complete
// Sequence, which is convenient for simulation; stream.Scheduler instead
// accepts requests round by round and emits reconfiguration and execution
// decisions immediately, demonstrating that VarBatch ∘ Distribute ∘ ΔLRU-EDF
// is genuinely causal: every decision depends only on the past.
//
//	s, _ := stream.New(stream.Config{Delta: 4, Resources: 8})
//	for r := int64(0); ; r++ {
//	    dec, _ := s.Push(r, jobsArrivingAt(r))
//	    apply(dec.Reconfigs, dec.Executions)
//	}
//	cost := s.Cost()
//
// Internally the scheduler performs the VarBatch delay (jobs are held until
// the next half-block boundary of their rounded delay bound), the Distribute
// subcolor split (per-batch buckets of at most h jobs), and the ΔLRU-EDF
// round bookkeeping, mirroring the batch pipeline decision for decision.
package stream

import (
	"cmp"
	"fmt"
	"slices"

	"rrsched/internal/model"
	"rrsched/internal/queue"
	"rrsched/internal/reduce"
)

// Config parameterizes a streaming scheduler.
type Config struct {
	// Delta is the reconfiguration cost.
	Delta int64
	// Resources is the number of resources n (a positive multiple of 4 for
	// the paper's two-way replication and two-way slot split).
	Resources int
}

// Decision is what the scheduler decided in one round.
type Decision struct {
	Round int64
	// Reconfigs are the resource recolorings performed this round (outer
	// colors; already minimal — physical no-ops are elided).
	Reconfigs []model.Reconfigure
	// Executions are the jobs executed this round, by caller-provided ID.
	Executions []model.Execution
	// Dropped are the IDs of jobs dropped at the start of this round
	// (deadline reached before execution).
	Dropped []int64
}

func (cfg Config) validate() error {
	if cfg.Delta <= 0 {
		return fmt.Errorf("stream: non-positive Delta %d", cfg.Delta)
	}
	if cfg.Resources <= 0 || cfg.Resources%4 != 0 {
		return fmt.Errorf("stream: resources must be a positive multiple of 4, got %d", cfg.Resources)
	}
	return nil
}

// Scheduler is an incremental online scheduler. It is not safe for
// concurrent use; decisions are deterministic given the push sequence.
type Scheduler struct {
	cfg   Config
	round int64 // next round to process

	// Outer state.
	pendingByColor map[model.Color]*queue.Ring[model.Job] // outer pending jobs (released or not — execution eligibility checked per job)
	pendingOrder   []colorQueue                           // the entries of pendingByColor in ascending color order
	delays         map[model.Color]int64                  // outer delay bounds
	futureReleases map[int64][]model.Job                  // VarBatch-delayed jobs by release round
	locColor       []model.Color                          // physical colors

	// Inner (reduced) state.
	inner        *innerState
	cost         model.Cost
	executed     int
	dropped      int
	pushedJobs   int
	maxScheduled int64          // highest job ID accepted so far (-1 before the first)
	inflight     map[int64]bool // IDs of accepted jobs not yet executed or dropped

	// Scratch reused across rounds.
	batchSeen    map[int64]bool      // IDs of the batch being validated
	recs         []model.Reconfigure // this round's reconfigurations, before the caller's copy
	execs        []model.Execution   // this round's executions, before the caller's copy
	drops        []int64             // this round's dropped IDs, before the caller's copy
	executedJobs []model.Job         // this round's executed jobs, lent by Resolved
	droppedJobs  []model.Job         // this round's dropped jobs, lent by Resolved
}

// colorQueue is one outer color's pending queue.
type colorQueue struct {
	color model.Color
	q     *queue.Ring[model.Job]
}

// New returns a streaming scheduler.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:            cfg,
		pendingByColor: map[model.Color]*queue.Ring[model.Job]{},
		delays:         map[model.Color]int64{},
		futureReleases: map[int64][]model.Job{},
		locColor:       make([]model.Color, cfg.Resources),
		inner:          newInnerState(cfg),
		maxScheduled:   -1,
		inflight:       map[int64]bool{},
		batchSeen:      map[int64]bool{},
	}
	for i := range s.locColor {
		s.locColor[i] = model.Black
	}
	return s, nil
}

// Cost returns the cost accumulated so far.
func (s *Scheduler) Cost() model.Cost { return s.cost }

// Round returns the next round the scheduler will process. Push to any round
// at or past it fast-forwards the gap, which is what lets a scheduler restored
// from an older checkpoint catch up without an explicit replay loop.
func (s *Scheduler) Round() int64 { return s.round }

// Executed returns the number of jobs executed so far.
func (s *Scheduler) Executed() int { return s.executed }

// Dropped returns the number of jobs dropped so far.
func (s *Scheduler) Dropped() int { return s.dropped }

// Pending returns the number of accepted jobs not yet executed or dropped:
// pushed minus executed minus dropped.
func (s *Scheduler) Pending() int { return s.pushedJobs - s.executed - s.dropped }

// Resolved lends the jobs the last processed round dropped and executed, in
// the order of that round's Decision.Dropped and Decision.Executions, with
// the color, arrival and delay bound each was pushed with. The slices are
// the scheduler's scratch: they stay valid until the next Push or Drain and
// must not be modified. Rounds a Push fast-forwards report nothing, as their
// Decisions are discarded, and a restored scheduler reports nothing until
// its first Push.
func (s *Scheduler) Resolved() (dropped, executed []model.Job) {
	return s.droppedJobs, s.executedJobs
}

// Push advances the scheduler to round r (processing any skipped empty
// rounds first) and delivers the round's arrivals. Rounds must be pushed in
// nondecreasing order; jobs must carry arrival == r, a positive delay bound,
// a non-black color consistent with earlier pushes, and unique IDs.
func (s *Scheduler) Push(r int64, jobs []model.Job) (Decision, error) {
	if r < s.round {
		return Decision{}, fmt.Errorf("stream: round %d already processed (next is %d)", r, s.round)
	}
	batchSeen := s.batchSeen
	clear(batchSeen)
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return Decision{}, err
		}
		if j.Arrival != r {
			return Decision{}, fmt.Errorf("stream: job %d has arrival %d, pushed in round %d", j.ID, j.Arrival, r)
		}
		if d, ok := s.delays[j.Color]; ok && d != j.Delay {
			return Decision{}, fmt.Errorf("stream: color %v has delay bound %d, job %d has %d", j.Color, d, j.ID, j.Delay)
		}
		// Reject duplicated IDs — a crashed producer re-sending in-flight work
		// would otherwise corrupt the pending queues. (A replay of an already
		// retired round is caught by the round check above.)
		if s.inflight[j.ID] || batchSeen[j.ID] {
			return Decision{}, fmt.Errorf("stream: job id %d already accepted (duplicate push)", j.ID)
		}
		batchSeen[j.ID] = true
	}
	// Process skipped empty rounds so drops and batched bookkeeping land on
	// time.
	for s.round < r {
		if _, err := s.step(s.round, nil); err != nil {
			return Decision{}, err
		}
		s.round++
	}
	dec, err := s.step(r, jobs)
	if err != nil {
		return Decision{}, err
	}
	s.round = r + 1
	return dec, nil
}

// Drain processes rounds until every accepted job has been executed or
// dropped, returning the decisions of those final rounds.
func (s *Scheduler) Drain() ([]Decision, error) {
	var out []Decision
	for s.executed+s.dropped < s.pushedJobs {
		dec, err := s.Push(s.round, nil)
		if err != nil {
			return out, err
		}
		out = append(out, dec)
	}
	return out, nil
}

// step runs one full round: outer drop phase, VarBatch release + Distribute
// split + inner round, then projection of the inner configuration and the
// outer execution phase.
func (s *Scheduler) step(r int64, arrivals []model.Job) (Decision, error) {
	dec := Decision{Round: r}

	// Outer drop phase: drop jobs whose deadline is r. Colors are visited in
	// ascending order so the decision trace is deterministic (and therefore
	// reproducible across checkpoint/restore).
	drops, droppedJobs := s.drops[:0], s.droppedJobs[:0]
	for _, cq := range s.pendingOrder {
		q := cq.q
		for q.Len() > 0 && q.Peek().Deadline() <= r {
			j := q.Pop()
			delete(s.inflight, j.ID)
			drops = append(drops, j.ID)
			droppedJobs = append(droppedJobs, j)
			s.dropped++
			s.cost.Drop++
		}
	}
	s.drops, s.droppedJobs = drops, droppedJobs
	dec.Dropped = owned(drops)

	// Outer arrival phase: admit jobs, register delay bounds, and schedule
	// their VarBatch releases.
	for _, j := range arrivals {
		s.delays[j.Color] = j.Delay
		s.queueOf(j.Color).Push(j)
		s.inflight[j.ID] = true
		if j.ID > s.maxScheduled {
			s.maxScheduled = j.ID
		}
		s.pushedJobs++
		h := reduce.BatchedDelay(j.Delay)
		release := j.Arrival
		if h < j.Delay {
			release = (j.Arrival/h + 1) * h
		}
		s.futureReleases[release] = append(s.futureReleases[release], j)
	}

	// Inner round: feed this round's releases (as batched inner jobs) and
	// run the full inner simulation (ΔLRU-EDF bookkeeping, placement,
	// execution).
	released := s.futureReleases[r]
	delete(s.futureReleases, r)
	s.inner.round(r, released)

	// Projection (Section 4.1): whenever the inner schedule configures
	// (ℓ, j) on a location, the outer schedule configures ℓ there. Physical
	// no-ops — including subcolor moves (ℓ, 0) -> (ℓ, 1) — are free.
	dec.Reconfigs = s.project(r)

	// Outer execution phase: each location executes the earliest-deadline
	// pending job of its color. Like the batch pipeline's replay, execution
	// uses the job's ORIGINAL window [arrival, deadline): the VarBatch delay
	// constrains only the inner bookkeeping, and executing an already
	// arrived job early is always legal and never worse.
	execs, executedJobs := s.execs[:0], s.executedJobs[:0]
	for loc := 0; loc < s.cfg.Resources; loc++ {
		c := s.locColor[loc]
		if c == model.Black {
			continue
		}
		q := s.pendingByColor[c]
		if q == nil || q.Len() == 0 {
			continue
		}
		j := q.Pop()
		delete(s.inflight, j.ID)
		execs = append(execs, model.Execution{Round: r, Resource: loc, JobID: j.ID})
		executedJobs = append(executedJobs, j)
		s.executed++
	}
	s.execs, s.executedJobs = execs, executedJobs
	dec.Executions = owned(execs)
	return dec, nil
}

// queueOf returns the pending queue of outer color c, creating it (and its
// place in pendingOrder) on first use.
func (s *Scheduler) queueOf(c model.Color) *queue.Ring[model.Job] {
	if q := s.pendingByColor[c]; q != nil {
		return q
	}
	q := &queue.Ring[model.Job]{}
	s.pendingByColor[c] = q
	i, _ := slices.BinarySearchFunc(s.pendingOrder, c, func(cq colorQueue, c model.Color) int { return cmp.Compare(cq.color, c) })
	s.pendingOrder = slices.Insert(s.pendingOrder, i, colorQueue{color: c, q: q})
	return q
}

// owned returns a copy of a round's scratch for the Decision the caller
// keeps: one exact-size allocation, and nil when the round had none.
func owned[T any](scratch []T) []T {
	if len(scratch) == 0 {
		return nil
	}
	return slices.Clone(scratch)
}

// releaseRound is the VarBatch release round of a job: the start of the
// half-block following its arrival (jobs with delay 1 release immediately).
func releaseRound(j model.Job) int64 {
	h := reduce.BatchedDelay(j.Delay)
	if h >= j.Delay {
		return j.Arrival
	}
	return (j.Arrival/h + 1) * h
}

// project realizes the inner location assignment as outer colors: location
// loc wants outerOf(innerColor(loc)); black inner locations leave the outer
// location unchanged (the physical resource keeps its color, as in the
// paper's model).
func (s *Scheduler) project(r int64) []model.Reconfigure {
	recs := s.recs[:0]
	for loc := 0; loc < s.cfg.Resources; loc++ {
		ic := s.inner.locColor[loc]
		if ic == model.Black {
			continue
		}
		want := s.inner.outerOf(ic)
		if s.locColor[loc] == want {
			continue
		}
		s.locColor[loc] = want
		recs = append(recs, model.Reconfigure{Round: r, Resource: loc, To: want})
		s.cost.Reconfig += s.cfg.Delta
	}
	s.recs = recs
	return owned(recs)
}
