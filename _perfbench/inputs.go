package main

import (
	"fmt"
	"math/rand"

	"rrsched/internal/model"
	"rrsched/internal/serve"
	"rrsched/internal/workload"
)

// tenantInput is one tenant's arrivals: a pattern of cycle rounds that repeats
// for as long as the run lasts. Each repetition shifts every job ID by stride,
// so a tenant's IDs keep increasing across batches as the wire contract
// requires. The pattern is generated from the seed before anything boots; the
// timed loop only sends it.
type tenantInput struct {
	name    string
	pattern [][]serve.SubmitJob // jobs per pattern round, IDs of the first repetition
	live    [][]serve.SubmitJob // the batches sent; IDs advance by stride after each send
	stride  int64
	first   int64 // first round with jobs: the global round of the tenant's local round 0
}

// inputs is one workload's generated arrivals.
type inputs struct {
	cycle    int
	tenants  []*tenantInput
	active   [][]int // per pattern round, the tenants that send a batch
	maxDelay int64
}

// batch returns the live batch of tenant t for global round g.
func (in *inputs) batch(t int, g int64) []serve.SubmitJob {
	return in.tenants[t].live[g%int64(in.cycle)]
}

// sent advances a live batch to its next repetition once the server holds it.
func (in *inputs) sent(t int, g int64) {
	ti := in.tenants[t]
	for i := range ti.live[g%int64(in.cycle)] {
		ti.live[g%int64(in.cycle)][i].ID += ti.stride
	}
}

// jobsAt rebuilds, from the pattern alone, the jobs tenant t sent at global
// round g, stamped with the tenant's local arrival round. It is what the
// bare replay pushes.
func (in *inputs) jobsAt(t int, g int64) []model.Job {
	ti := in.tenants[t]
	p := ti.pattern[g%int64(in.cycle)]
	if len(p) == 0 {
		return nil
	}
	shift := (g / int64(in.cycle)) * ti.stride
	jobs := make([]model.Job, len(p))
	for i, j := range p {
		jobs[i] = model.Job{ID: j.ID + shift, Color: model.Color(j.Color), Arrival: g - ti.first, Delay: j.Delay}
	}
	return jobs
}

func newInputs(cycle int, tenants []*tenantInput) *inputs {
	in := &inputs{cycle: cycle, tenants: tenants, active: make([][]int, cycle)}
	for t, ti := range tenants {
		ti.first = -1
		ti.live = make([][]serve.SubmitJob, cycle)
		for p, jobs := range ti.pattern {
			if len(jobs) == 0 {
				continue
			}
			if ti.first < 0 {
				ti.first = int64(p)
			}
			ti.live[p] = append([]serve.SubmitJob(nil), jobs...)
			in.active[p] = append(in.active[p], t)
			for _, j := range jobs {
				if j.Delay > in.maxDelay {
					in.maxDelay = j.Delay
				}
			}
		}
	}
	return in
}

// randomInputs draws every tenant's arrivals from the repository's workload
// generator (Poisson-ish arrivals per color), the same generator rrload
// uses. Delay bounds are not drawn: color c gets 2^(minExp + c mod k) for the
// k exponents in range, so every seed has the same mix of deadlines and a
// seed changes only when jobs arrive. Drawn delays would move the
// schedule's cost per job by several percent from seed to seed.
func randomInputs(seed int64, tenants, colors, cycle int, load float64, minExp, maxExp uint, delta int64) (*inputs, error) {
	out := make([]*tenantInput, tenants)
	for i := range out {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed:        seed<<20 + int64(i),
			Delta:       delta,
			Colors:      colors,
			Rounds:      int64(cycle),
			MinDelayExp: minExp,
			MaxDelayExp: maxExp,
			Load:        load,
		})
		if err != nil {
			return nil, err
		}
		// Canonical IDs are round-major and dense: increasing across rounds,
		// and NumJobs is the stride that keeps them increasing across cycles.
		seq = seq.Canonical()
		ti := &tenantInput{name: fmt.Sprintf("tenant-%03d", i), pattern: make([][]serve.SubmitJob, cycle), stride: int64(seq.NumJobs())}
		for r := 0; r < cycle; r++ {
			for _, j := range seq.Request(int64(r)) {
				delay := int64(1) << (minExp + uint(j.Color)%(maxExp-minExp+1))
				ti.pattern[r] = append(ti.pattern[r], serve.SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: delay})
			}
		}
		out[i] = ti
	}
	in := newInputs(cycle, out)
	for _, ti := range in.tenants {
		if ti.first < 0 {
			return nil, fmt.Errorf("tenant %s has no jobs in %d rounds", ti.name, cycle)
		}
	}
	return in, nil
}

// pagingInputs builds the paging universe: every tenant returns once per
// period with a burst of 16 jobs split over two of its palette's colors, at
// least Δ jobs on each, all with delay bound 16. The delay exceeds Δ, so the
// bursts execute (a delay of Δ would make the policy drop everything and
// never reconfigure) and every evicted tenant holds a real schedule. Drawing
// each visit's two colors from a palette larger than two keeps the tenant
// reconfiguring visit after visit: with a fixed pair, ΔLRU-EDF soon caches
// both and the schedule's cost decays to zero. A quarter of the visits are
// skipped at random, so tenants drift apart in how many chunks they have
// written: otherwise every tenant's delta chain folds in the same period and
// the chunk store's cost swings from one period to the next.
func pagingInputs(seed int64, tenants, period, visits, palette int, delta int64) *inputs {
	const burst, delay = 16, 16
	cycle := period * visits
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tenantInput, 0, tenants)
	for i := 0; i < tenants; i++ {
		ti := &tenantInput{name: fmt.Sprintf("page-%05d", i), pattern: make([][]serve.SubmitJob, cycle), stride: int64(visits * burst)}
		id := int64(0)
		for v := 0; v < visits; v++ {
			if rng.Intn(4) == 0 {
				continue
			}
			c1 := rng.Intn(palette)
			c2 := (c1 + 1 + rng.Intn(palette-1)) % palette
			k := int(delta) + rng.Intn(burst-2*int(delta)+1)
			jobs := make([]serve.SubmitJob, 0, burst)
			for j := 0; j < burst; j++ {
				c := c1
				if j >= k {
					c = c2
				}
				jobs = append(jobs, serve.SubmitJob{ID: id, Color: int32(c), Delay: delay})
				id++
			}
			ti.pattern[v*period+i%period] = jobs
		}
		if id > 0 {
			out = append(out, ti)
		}
	}
	return newInputs(cycle, out)
}
