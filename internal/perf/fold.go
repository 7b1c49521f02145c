package perf

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"

	"rrsched/internal/ckptstore"
	"rrsched/internal/model"
	"rrsched/internal/serve"
	"rrsched/internal/workload"
)

// Fold rung: the dispatcher's per-push work on the fleet tier. A hosted
// shard pushes a checkpoint bundle after every tick, and the dispatcher
// validates it (serve.FoldBundle) against the chunk pool of the pushes
// before it, outside its lease lock.

// Fleet tenant shape: the end-to-end fleet workload's per-tenant mix (n=8,
// Δ = 4, 8 colors, delay bounds 4..32, load 0.6), four tenants on the shard.
const (
	foldTenants = 4
	foldRounds  = 128
	foldN       = 8
	foldDelta   = 4
)

// ckptFoldScenario measures one FoldBundle of a push captured from a hosted
// shard after a warm-up, against the receiver pool that preceded it.
func ckptFoldScenario() Scenario {
	return Scenario{
		Name:   "ckpt/fold/fleet",
		Doc:    "dispatcher fold of one hosted-shard checkpoint push: 4 fleet-shaped tenants (n=8, 8 colors, delays 4..32), every tenant dirty (rounds_per_op = 1: figures are per push)",
		Rounds: 1,
		Setup: func() (func() error, error) {
			push, pool, err := captureFleetPush(false)
			if err != nil {
				return nil, err
			}
			return func() error {
				_, _, _, err := serve.FoldBundle(push, pool)
				return err
			}, nil
		},
	}
}

// declogRecords is the number of records one op of the declog rung appends.
const declogRecords = 1024

// declogRecord is one decision-log record as the log walks it.
type declogRecord struct {
	tenant  string
	round   int64
	payload []byte
}

// ckptDeclogAppendScenario measures the decision log's append path on real
// records: those a recording hosted shard of four fleet-shaped tenants
// logged over foldRounds rounds, appended in a cycle through segment seals
// into a MemStore, then cut.
func ckptDeclogAppendScenario() Scenario {
	return Scenario{
		Name:   "ckpt/declog/append",
		Doc:    fmt.Sprintf("decision-log append: %d varint records of 4 fleet-shaped tenants (n=8, 8 colors, delays 4..32), appended through segment seals into a MemStore, then cut (figures per record)", declogRecords),
		Rounds: declogRecords,
		Setup: func() (func() error, error) {
			push, pool, err := captureFleetPush(true)
			if err != nil {
				return nil, err
			}
			_, m, chunks, err := serve.FoldBundle(push, pool)
			if err != nil {
				return nil, err
			}
			ids, err := m.LogIDs()
			if err != nil {
				return nil, err
			}
			var recs []declogRecord
			if err := ckptstore.WalkLog(chunks, ids, func(tenant string, round int64, payload []byte) error {
				recs = append(recs, declogRecord{tenant, round, payload})
				return nil
			}); err != nil {
				return nil, err
			}
			if len(recs) == 0 {
				return nil, fmt.Errorf("perf: declog fixture logged no records")
			}
			return func() error {
				l := ckptstore.NewDecLog(ckptstore.NewMemStore())
				for i := 0; i < declogRecords; i++ {
					r := &recs[i%len(recs)]
					if err := l.Append(r.tenant, r.round, r.payload); err != nil {
						return err
					}
				}
				_, err := l.Cut()
				return err
			}, nil
		},
	}
}

// captureFleetPush drives a hosted one-shard-of-four service, recording
// decisions or not, through foldRounds rounds of fleet-shaped traffic,
// folding every push into a receiver pool the way the dispatcher does, and
// returns the last push with the pool it folds against.
func captureFleetPush(record bool) ([]byte, *ckptstore.MemStore, error) {
	var last []byte
	var before *ckptstore.MemStore
	pool := ckptstore.NewMemStore()
	hook := func(_ int, _ int64, data []byte) error {
		_, _, next, err := serve.FoldBundle(data, pool)
		if err != nil {
			return err
		}
		last, before, pool = append(last[:0], data...), pool, next
		return nil
	}
	svc, _, err := serve.New(serve.Config{Shards: 4, Resources: foldN, Delta: foldDelta,
		Watermark: 1 << 16, RecordDecisions: record, OnShardCheckpoint: hook})
	if err != nil {
		return nil, nil, err
	}
	defer svc.Close()
	if _, err := svc.OpenShard(0, nil); err != nil {
		return nil, nil, err
	}
	var tenants []string
	for i := 0; len(tenants) < foldTenants; i++ {
		if name := fmt.Sprintf("tenant-%03d", i); svc.ShardFor(name) == 0 {
			tenants = append(tenants, name)
		}
	}
	h := svc.Handler()
	seqs := make(map[string]*model.Sequence, len(tenants))
	for i, name := range tenants {
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed: int64(i + 1), Delta: foldDelta, Colors: 8, Rounds: foldRounds,
			MinDelayExp: 2, MaxDelayExp: 5, Load: 0.6,
		})
		if err != nil {
			return nil, nil, err
		}
		seqs[name] = seq.Canonical()
	}
	for r := int64(0); r < foldRounds; r++ {
		for _, name := range tenants {
			var jobs []serve.SubmitJob
			for _, j := range seqs[name].Request(r) {
				jobs = append(jobs, serve.SubmitJob{ID: j.ID, Color: int32(j.Color), Delay: j.Delay})
			}
			if len(jobs) == 0 {
				continue
			}
			body, err := serve.EncodeSubmit(&serve.SubmitRequest{Schema: serve.WireSchema, Tenant: name, Jobs: jobs})
			if err != nil {
				return nil, nil, err
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return nil, nil, fmt.Errorf("perf: fold fixture submit %s round %d: %d %s", name, r, rec.Code, rec.Body.String())
			}
		}
		if _, err := svc.TickShard(&serve.RoundRequest{Shard: 0, Shards: 4, Target: r + 1}); err != nil {
			return nil, nil, err
		}
	}
	if last == nil {
		return nil, nil, fmt.Errorf("perf: fold fixture captured no push")
	}
	return last, before, nil
}
