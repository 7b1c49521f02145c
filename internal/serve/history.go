package serve

import (
	"fmt"
	"net/http"

	"rrsched/internal/ckptstore"
	"rrsched/internal/model"
	"rrsched/internal/stream"
	"rrsched/internal/varint"
)

// Decision history has one home: the shard's decision log
// (ckptstore.DecLog), on every kind of service. Its sealed segments are
// chunks in the shard's chunk store — the state dir's store, or else the
// shard's own pool (a hosted shard's bundle pool, or one a recording classic
// shard makes for its log) — and every cut names the log in its manifest
// (Manifest.Log): Checkpoint, a hosted push and CloseShard. History therefore
// rides every path that already moves manifests: boot restore, OpenShard,
// FoldBundle, and the dispatcher's persist and grant. A resize moves records
// through the new ring in ReshardManifests. A service that does not record
// keeps no log and writes none.

// chunks is the shard's chunk store: the state dir's when durable, else the
// shard's pool.
func (sh *shard) chunks() ckptstore.Chunks {
	if sh.store != nil {
		return sh.store
	}
	return sh.pool
}

// openLog gives the shard its decision log when the service records
// decisions: the log m names, every record checked on the way in
// (checkLog), or an empty one when m is nil. A shard with neither a state
// dir nor a pool gets a pool of its own for the log.
func (sh *shard) openLog(m *ckptstore.Manifest) error {
	sh.declog, sh.declogErr = nil, nil
	if !sh.cfg.RecordDecisions {
		return nil
	}
	if sh.store == nil && sh.pool == nil {
		sh.pool = ckptstore.NewMemStore()
	}
	if m == nil {
		sh.declog = ckptstore.NewDecLog(sh.chunks())
		return nil
	}
	ids, err := m.LogIDs()
	if err != nil {
		return err
	}
	if sh.declog, err = ckptstore.OpenDecLog(sh.chunks(), ids, checkLog(m)); err != nil {
		return fmt.Errorf("serve: shard %d: %w", sh.idx, err)
	}
	sh.met.ckm.DecisionLogB.Set(sh.declog.Bytes())
	return nil
}

// cutLog writes the log's open tail and names the log in m, so the cut
// commits history exactly as of its round. No-op without a log.
func (sh *shard) cutLog(m *ckptstore.Manifest) error {
	if sh.declogErr != nil {
		return sh.declogErr
	}
	if sh.declog == nil {
		return nil
	}
	var err error
	if m.Log, err = sh.declog.Cut(); err != nil {
		return fmt.Errorf("serve: shard %d: %w", sh.idx, err)
	}
	sh.met.ckm.DecisionLogB.Set(sh.declog.Bytes())
	return nil
}

// recordDecision appends one tenant round's decision to the shard's log, at
// the tenant's global round. Only non-trivial decisions are recorded:
// handleDecisions synthesizes the trivial ones byte-identically, because
// the scheduler builds them as Decision{Round: r} with nil slices.
func (sh *shard) recordDecision(tn *tenant, dec stream.Decision) {
	if len(dec.Reconfigs) == 0 && len(dec.Executions) == 0 && len(dec.Dropped) == 0 {
		return
	}
	if err := sh.declog.Append(tn.name, tn.epoch+dec.Round, appendDecision(nil, dec)); err != nil && sh.declogErr == nil {
		// The log is now behind the live stream; surface that on the next cut
		// and on decision reads instead of silently serving a hole.
		sh.declogErr = fmt.Errorf("serve: shard %d decision log: %w", sh.idx, err)
	}
}

// handleDecisions answers /v1/decisions, the same way on every kind of
// service: a trivial decision per tenant round, overlaid with the tenant's
// records from the log. Evicted tenants answer from their stub's epoch,
// without faulting in.
func (sh *shard) handleDecisions(name string, epoch int64) decisionsResult {
	if epoch != sh.epoch {
		return decisionsResult{status: statusWrongPlacement}
	}
	if !sh.cfg.RecordDecisions {
		return decisionsResult{status: http.StatusNotFound, err: "decision recording is disabled (start the service with record-decisions)"}
	}
	if sh.declogErr != nil {
		return decisionsResult{status: http.StatusInternalServerError, err: sh.declogErr.Error()}
	}
	var first int64
	if tn := sh.tenants[name]; tn != nil {
		first = tn.epoch
	} else if stub, ok := sh.evicted[name]; ok {
		first = stub.epoch
	} else {
		return decisionsResult{status: http.StatusNotFound, err: fmt.Sprintf("unknown tenant %q", name)}
	}
	n := sh.round - first
	decs := make([]stream.Decision, n)
	for i := range decs {
		decs[i] = stream.Decision{Round: int64(i)}
	}
	err := sh.declog.Walk(func(tenant string, round int64, payload []byte) error {
		if tenant != name {
			return nil
		}
		local := round - first
		if local < 0 || local >= n {
			return fmt.Errorf("serve: decision log round %d outside tenant %q rounds [%d, %d)", round, name, first, sh.round)
		}
		var err error
		decs[local], err = readDecision(payload, local)
		return err
	})
	if err != nil {
		return decisionsResult{status: http.StatusInternalServerError, err: err.Error()}
	}
	return decisionsResult{
		status: http.StatusOK,
		resp: &DecisionsResponse{
			Schema:         DecisionsSchema,
			Tenant:         name,
			Shard:          sh.idx,
			Epoch:          first,
			Round:          sh.round,
			PlacementEpoch: sh.epoch,
			Decisions:      decs,
		},
	}
}

// checkLog returns the check every record of the log m names must pass: a
// tenant m names, a round below m's, and a payload that decodes as one
// decision. Restore applies it to every record; FoldBundle to each segment
// the first time a stored checkpoint names it.
func checkLog(m *ckptstore.Manifest) func(tenant string, round int64, payload []byte) error {
	names := make(map[string]bool, len(m.Tenants))
	for _, ref := range m.Tenants {
		names[ref.Name] = true
	}
	return func(tenant string, round int64, payload []byte) error {
		switch {
		case !names[tenant]:
			return fmt.Errorf("serve: decision log records tenant %q, which the manifest does not name", tenant)
		case round >= m.Round:
			return fmt.Errorf("serve: decision log records tenant %q at round %d, not below the manifest round %d", tenant, round, m.Round)
		}
		_, err := readDecision(payload, 0)
		return err
	}
}

// relog moves the decision logs of a manifest set through ring: one walk of
// each source log, every record appended to the new log of the shard its
// tenant lands on, each new log then cut into its manifest. A tenant's
// records all sit in one source log, so its record order survives. Segments
// are read from and written to chunks.
func relog(old, out []*ckptstore.Manifest, ring hashRing, chunks ckptstore.Chunks) error {
	logs := make([]*ckptstore.DecLog, len(out))
	for i := range logs {
		logs[i] = ckptstore.NewDecLog(chunks)
	}
	for _, m := range old {
		ids, err := m.LogIDs()
		if err != nil {
			return err
		}
		if err := ckptstore.WalkLog(chunks, ids, func(tenant string, round int64, payload []byte) error {
			return logs[ring.ShardOf(tenant)].Append(tenant, round, payload)
		}); err != nil {
			return fmt.Errorf("serve: shard %d: %w", m.Shard, err)
		}
	}
	for i, l := range logs {
		var err error
		if out[i].Log, err = l.Cut(); err != nil {
			return err
		}
	}
	return nil
}

// dropLogRecords rewrites the shard's log without the records of the gone
// tenants, whose history now lives with them on another shard. The rewrite
// goes to the state dir's store, where the last committed manifest keeps the
// old segments until the next cut, or else to a fresh pool that replaces the
// shard's (a classic shard's pool holds nothing but its log).
func (sh *shard) dropLogRecords(gone map[string]bool) {
	if sh.declog == nil || sh.declogErr != nil {
		return
	}
	var pool *ckptstore.MemStore
	chunks := ckptstore.Chunks(sh.store)
	if sh.store == nil {
		pool = ckptstore.NewMemStore()
		chunks = pool
	}
	kept := ckptstore.NewDecLog(chunks)
	if err := sh.declog.Walk(func(tenant string, round int64, payload []byte) error {
		if gone[tenant] {
			return nil
		}
		return kept.Append(tenant, round, payload)
	}); err != nil {
		sh.declogErr = fmt.Errorf("serve: shard %d decision log: %w", sh.idx, err)
		return
	}
	sh.declog = kept
	if pool != nil {
		sh.pool = pool
	}
}

// appendDecision appends one decision's record payload: its reconfigs,
// executions and drops, each entry's round relative to the decision's (the
// record carries the decision's round).
func appendDecision(b []byte, d stream.Decision) []byte {
	b = varint.AppendLen(b, len(d.Reconfigs))
	for _, rc := range d.Reconfigs {
		b = varint.AppendInt(b, rc.Round-d.Round)
		b = varint.AppendInt(b, int64(rc.Mini))
		b = varint.AppendInt(b, int64(rc.Resource))
		b = varint.AppendInt(b, int64(rc.To))
	}
	b = varint.AppendLen(b, len(d.Executions))
	for _, e := range d.Executions {
		b = varint.AppendInt(b, e.Round-d.Round)
		b = varint.AppendInt(b, int64(e.Mini))
		b = varint.AppendInt(b, int64(e.Resource))
		b = varint.AppendInt(b, e.JobID)
	}
	b = varint.AppendLen(b, len(d.Dropped))
	for _, id := range d.Dropped {
		b = varint.AppendInt(b, id)
	}
	return b
}

// readDecision decodes a record payload as the decision of the tenant-local
// round it was recorded at. It never panics on arbitrary bytes.
func readDecision(payload []byte, round int64) (stream.Decision, error) {
	r := varint.NewReader(payload)
	d := stream.Decision{Round: round}
	if n := r.Len(4); n > 0 {
		d.Reconfigs = make([]model.Reconfigure, n)
		for k := range d.Reconfigs {
			d.Reconfigs[k] = model.Reconfigure{Round: d.Round + r.Int(), Mini: r.IntN(), Resource: r.IntN(), To: model.Color(r.Int32())}
		}
	}
	if n := r.Len(4); n > 0 {
		d.Executions = make([]model.Execution, n)
		for k := range d.Executions {
			d.Executions[k] = model.Execution{Round: d.Round + r.Int(), Mini: r.IntN(), Resource: r.IntN(), JobID: r.Int()}
		}
	}
	if n := r.Len(1); n > 0 {
		d.Dropped = make([]int64, n)
		for k := range d.Dropped {
			d.Dropped[k] = r.Int()
		}
	}
	if err := r.Done(); err != nil {
		return d, fmt.Errorf("serve: decision record: %w", err)
	}
	return d, nil
}
