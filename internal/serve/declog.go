package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rrsched/internal/ckptstore"
)

// Decision-log lifecycle for log mode (durable classic service with recording
// on): per-shard streaming logs under StateDir/declog/shard-NNNN, rolled back
// to the last committed manifest at boot and redistributed when the shard
// count changes.

// setupDecLogs opens every shard's decision log and rolls it back to the
// restored round (records past the last committed manifest describe rounds
// the restore rewound). When the restore re-routed a checkpoint set taken
// under a different shard count, the logs are first redistributed through the
// new ring; when the state dir held no manifests, the logs are wiped —
// without a committed manifest their content is uncommitted.
func (s *Service) setupDecLogs(pl *placement, resharded, fresh bool) error {
	root := filepath.Join(s.cfg.StateDir, "declog")
	if fresh {
		if err := os.RemoveAll(root); err != nil {
			return fmt.Errorf("serve: wiping stale decision logs: %w", err)
		}
	} else if resharded {
		if err := s.redistributeDecLogs(pl); err != nil {
			return err
		}
	}
	round := s.round.Load()
	for i, sh := range pl.shards {
		l, err := ckptstore.OpenDecLog(shardDecLogDir(s.cfg.StateDir, i), 0)
		if err != nil {
			return err
		}
		if err := l.TruncateFrom(round); err != nil {
			return err
		}
		sh.declog = l
	}
	return nil
}

// redistributeDecLogs rebuilds the decision logs for a new shard count: every
// record from every existing log is re-routed through the new ring. Per-tenant
// append order is preserved because a tenant's records all live in one source
// log and source logs are walked in index order.
func (s *Service) redistributeDecLogs(pl *placement) error {
	root := filepath.Join(s.cfg.StateDir, "declog")
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("serve: probing decision log dir: %w", err)
	}
	var dirs []int
	for _, e := range entries {
		var i int
		if n, err := fmt.Sscanf(e.Name(), "shard-%d", &i); err == nil && n == 1 && e.Name() == fmt.Sprintf("shard-%04d", i) {
			dirs = append(dirs, i)
		}
	}
	sort.Ints(dirs)
	type logRec struct {
		tenant string
		rec    ckptstore.LogRecord
	}
	var recs []logRec
	for _, idx := range dirs {
		l, err := ckptstore.OpenDecLog(filepath.Join(root, fmt.Sprintf("shard-%04d", idx)), 0)
		if err != nil {
			return err
		}
		err = l.ReadAll(func(tenant string, rec ckptstore.LogRecord) error {
			recs = append(recs, logRec{tenant: tenant, rec: rec})
			return nil
		})
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if err := os.RemoveAll(root); err != nil {
		return fmt.Errorf("serve: clearing decision logs for redistribution: %w", err)
	}
	targets := make([]*ckptstore.DecLog, len(pl.shards))
	for i := range pl.shards {
		l, err := ckptstore.OpenDecLog(shardDecLogDir(s.cfg.StateDir, i), 0)
		if err != nil {
			return err
		}
		targets[i] = l
	}
	for _, r := range recs {
		t := pl.ring.ShardOf(r.tenant)
		if err := targets[t].Append(r.tenant, r.rec.Round, r.rec.Payload); err != nil {
			return err
		}
	}
	for _, l := range targets {
		if err := l.Close(); err != nil {
			return err
		}
	}
	return nil
}

// closeDecLog flushes and closes the shard's decision log, if any. Called
// when the shard goroutine exits; errors are stashed like append errors (the
// state they would protect is gone anyway — the last cut already flushed).
func (sh *shard) closeDecLog() {
	if sh.declog == nil {
		return
	}
	if err := sh.declog.Close(); err != nil && sh.declogErr == nil {
		sh.declogErr = err
	}
}
