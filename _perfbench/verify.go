package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"rrsched/internal/model"
	"rrsched/internal/serve"
	"rrsched/internal/stream"
)

// decisionSample is how many paging tenants have their /v1/decisions stream
// byte-compared against the replay.
const decisionSample = 16

// snapEvery spaces the traced run's stream snapshots: each tenant is
// snapshotted every snapEvery rounds of the timed window, staggered by
// tenant so no round snapshots everyone.
const snapEvery = 64

// tenantReplay is one tenant's arrivals replayed through a bare
// stream.Scheduler.
type tenantReplay struct {
	// Decisions from the timed window's first round on.
	reconfigCost, dropped, executed int64
	// Over the whole run.
	pushed, resolved int64
	decisions        []stream.Decision // sampled tenants only
	// Traced runs: Push time over the timed window, and snapshots taken in it.
	pushNs, pushRounds int64
	snaps              []snapshot
}

type snapshot struct {
	round  int64
	tenant int
	ns     int64
	data   []byte
}

// replay pushes every tenant's exact arrivals, round by round from its
// first round to the run's last, through a bare stream.Scheduler, on the
// submitter goroutine count.
func (r *runner) replay(sample map[int]bool) ([]tenantReplay, error) {
	out := make([]tenantReplay, len(r.in.tenants))
	errs := make([]error, r.conns)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := next.Add(1) - 1; t < int64(len(out)); t = next.Add(1) - 1 {
				if err := r.replayTenant(int(t), sample[int(t)], &out[t]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (r *runner) replayTenant(t int, keep bool, res *tenantReplay) error {
	ti := r.in.tenants[t]
	if ti.first >= r.timedTo {
		return nil // never submitted, so never created
	}
	s, err := stream.New(stream.Config{Delta: r.spec.delta, Resources: r.spec.resources})
	if err != nil {
		return err
	}
	for g := ti.first; g < r.end; g++ {
		var jobs []model.Job
		if g < r.timedTo {
			jobs = r.in.jobsAt(t, g)
		}
		timed := r.traced && g >= r.timedFrom && g < r.timedTo
		var t0 int64
		if timed {
			t0 = r.ns()
		}
		dec, err := s.Push(g-ti.first, jobs)
		if err != nil {
			return fmt.Errorf("replay of %s, round %d: %w", ti.name, g, err)
		}
		if timed {
			res.pushNs += r.ns() - t0
			res.pushRounds++
			if (g+int64(t))%snapEvery == 0 {
				s0 := r.ns()
				data, err := s.Snapshot()
				if err != nil {
					return err
				}
				res.snaps = append(res.snaps, snapshot{round: g, tenant: t, ns: r.ns() - s0, data: data})
			}
		}
		res.pushed += int64(len(jobs))
		res.resolved += int64(len(dec.Executions) + len(dec.Dropped))
		if g >= r.timedFrom {
			res.reconfigCost += int64(len(dec.Reconfigs)) * r.spec.delta
			res.dropped += int64(len(dec.Dropped))
			res.executed += int64(len(dec.Executions))
		}
		if keep {
			res.decisions = append(res.decisions, dec)
		}
	}
	return nil
}

// finish computes the run's figures from the final stats, checks the outputs
// against the bare replay, and, on traced runs, derives the per-layer
// figures. A disagreement is reported after every figure is in place.
func (r *runner) finish(stats *serve.StatsResponse, st *serveStack, f *fleetStack) error {
	sample := map[int]bool{}
	if r.spec.stateful {
		for _, t := range rand.New(rand.NewSource(r.seed)).Perm(len(r.in.tenants))[:decisionSample] {
			sample[t] = true
		}
	}
	reps, err := r.replay(sample)
	if err != nil {
		return err
	}
	r.reportEndToEnd(stats)
	problems := r.check(stats, reps)
	if st != nil && r.spec.stateful {
		problems = append(problems, r.checkDecisions(st, reps, sample)...)
	}
	if r.ops.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed", r.ops.failed, r.ops.attempted))
	}
	if r.traced {
		if err := r.reportLayers(reps, st, f); err != nil {
			return err
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%w: %s", errIncorrect, strings.Join(problems, "; "))
	}
	return nil
}

// windowTotals returns the service's totals over the timed window and the drain:
// counters as deltas from stats0, queue depths as they stand at the end.
func (r *runner) windowTotals(stats *serve.StatsResponse) serve.ShardStats {
	t, t0 := stats.Totals, r.stats0.Totals
	t.Accepted -= t0.Accepted
	t.Rejected -= t0.Rejected
	t.Refused -= t0.Refused
	t.Executed -= t0.Executed
	t.Dropped -= t0.Dropped
	t.Reconfigs -= t0.Reconfigs
	t.ReconfigCost -= t0.ReconfigCost
	return t
}

// check holds the service's own totals to the replay: the paper's objective
// (reconfiguration cost plus drops) must match exactly, every accepted job
// must be executed or dropped, and nothing may be left queued or inflight.
func (r *runner) check(stats *serve.StatsResponse, reps []tenantReplay) []string {
	var sum tenantReplay
	for _, x := range reps {
		sum.reconfigCost += x.reconfigCost
		sum.dropped += x.dropped
		sum.executed += x.executed
		sum.pushed += x.pushed
		sum.resolved += x.resolved
	}
	tot := r.windowTotals(stats)
	var bad []string
	expect := func(what string, got, want int64) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s: service %d, replay %d", what, got, want))
		}
	}
	expect("reconfiguration cost", tot.ReconfigCost, sum.reconfigCost)
	expect("dropped jobs", tot.Dropped, sum.dropped)
	expect("executed jobs", tot.Executed, sum.executed)
	expect("accepted jobs in the window", tot.Accepted, r.jobs)
	expect("jobs sent", r.accepted, sum.pushed)
	expect("executed+dropped over the run", sum.resolved, r.accepted)
	expect("backlog after drain", int64(tot.Backlog), 0)
	expect("inflight after drain", int64(tot.Inflight), 0)
	expect("rejected jobs", tot.Rejected, 0)
	expect("refused jobs", tot.Refused, 0)
	return bad
}

// checkDecisions byte-compares /v1/decisions, which paging serves from the
// decision log, against the replay's decisions for the sampled tenants.
func (r *runner) checkDecisions(st *serveStack, reps []tenantReplay, sample map[int]bool) []string {
	ts := make([]int, 0, len(sample))
	for t := range sample {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	var bad []string
	for _, t := range ts {
		ti := r.in.tenants[t]
		if ti.first >= r.timedTo {
			continue
		}
		want, err := serve.MarshalResponse(&serve.DecisionsResponse{
			Schema:    serve.DecisionsSchema,
			Tenant:    ti.name,
			Shard:     st.svc.ShardFor(ti.name),
			Epoch:     ti.first,
			Round:     r.end,
			Decisions: reps[t].decisions,
		})
		if err != nil {
			return append(bad, err.Error())
		}
		got, err := st.client.DecisionsRaw(ti.name)
		r.ops.attempted++
		if err != nil {
			r.ops.failed++
			bad = append(bad, fmt.Sprintf("decisions of %s: %v", ti.name, err))
			continue
		}
		if !bytes.Equal(got, want) {
			bad = append(bad, fmt.Sprintf("decisions of %s differ from the replay", ti.name))
		}
	}
	return bad
}
