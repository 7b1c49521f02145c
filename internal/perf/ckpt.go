package perf

import (
	"encoding/json"
	"fmt"

	"rrsched/internal/ckptstore"
)

// Incremental checkpoint store scenarios: the cost of cutting a shard into
// content-addressed chunks (full cut vs a dirty cut that re-chunks only a
// dirty fraction), reading one chunk back into a payload (the fault-in path,
// minus disk I/O), and the manifest codec round-trip. All figures are pure
// codec costs against the in-memory pool; the disk store adds only the
// atomic-write syscalls on top.

// ckptTenantFrame is a synthetic tenant checkpoint payload of realistic
// shape and size (~8 KiB encoded, the order of a warmed dense-shaped
// tenant's payload): identity, counters, and a state vector whose tail the
// dirty-mutation touches.
type ckptTenantFrame struct {
	Name     string  `json:"name"`
	Epoch    int64   `json:"epoch"`
	MaxID    int64   `json:"max_id"`
	Rev      int64   `json:"rev"`
	Snapshot []int64 `json:"snapshot"`
}

// ckptPayload builds the encoded frame of one tenant at one revision.
// Deterministic: the same (tenant, rev) always encodes identically.
func ckptPayload(tenant int, rev int64) ([]byte, error) {
	f := ckptTenantFrame{
		Name:     fmt.Sprintf("bench-%05d", tenant),
		Epoch:    int64(tenant % 7),
		MaxID:    128 + rev,
		Rev:      rev,
		Snapshot: make([]int64, 768),
	}
	for i := range f.Snapshot {
		f.Snapshot[i] = int64(tenant)*1000003 + int64(i)
	}
	// A small tail mutation per revision.
	f.Snapshot[len(f.Snapshot)-1] += rev
	f.Snapshot[len(f.Snapshot)-2] += rev * 3
	return json.Marshal(f)
}

// ckptScenarios returns the checkpoint-store benchmark rows: cut cost at
// n ∈ {8, 512} tenants (full cut, and dirty cut at 1% / 100% dirty),
// fault-in, and the manifest codec round-trip.
func ckptScenarios() []Scenario {
	var scs []Scenario
	for _, n := range []int{8, 512} {
		scs = append(scs, ckptFullCutScenario(n))
		for _, dirtyPct := range []int{1, 100} {
			scs = append(scs, ckptDirtyCutScenario(n, dirtyPct))
		}
		scs = append(scs, ckptManifestScenario(n))
	}
	scs = append(scs, ckptFaultInScenario())
	return scs
}

// ckptFullCutScenario measures the legacy-shaped cut: every tenant frame
// encoded as a fresh full chunk into an empty pool, plus the manifest.
func ckptFullCutScenario(n int) Scenario {
	return Scenario{
		Name:   fmt.Sprintf("ckpt/cut/full/n%d", n),
		Doc:    "full checkpoint cut: every tenant frame chunked from scratch plus the manifest encode (figures per tenant)",
		Rounds: int64(n),
		Setup: func() (func() error, error) {
			payloads := make([][]byte, n)
			for i := range payloads {
				p, err := ckptPayload(i, 0)
				if err != nil {
					return nil, err
				}
				payloads[i] = p
			}
			m := &ckptstore.Manifest{Schema: ckptstore.ManifestSchema, Shards: 1, Round: 1,
				Tenants: make([]ckptstore.TenantRef, n)}
			return func() error {
				pool := ckptstore.NewMemStore()
				for i, p := range payloads {
					res := pool.Put(p)
					m.Tenants[i] = ckptstore.TenantRef{
						Name:  fmt.Sprintf("bench-%05d", i),
						Chunk: ckptstore.FormatChunkID(res.Ref.ID),
					}
				}
				_, err := ckptstore.EncodeManifest(m)
				return err
			}, nil
		},
	}
}

// ckptDirtyCutScenario measures the incremental cut: a warmed pool holds
// every tenant's base frame, and one cut re-chunks only the dirty fraction
// (each as a full chunk) plus the full manifest encode — the steady state of
// the serve tier's per-tick checkpoint.
func ckptDirtyCutScenario(n, dirtyPct int) Scenario {
	dirty := n * dirtyPct / 100
	if dirty < 1 {
		dirty = 1
	}
	return Scenario{
		Name:   fmt.Sprintf("ckpt/cut/dirty/n%d/dirty%d", n, dirtyPct),
		Doc:    fmt.Sprintf("dirty checkpoint cut over a warmed pool, %d%% of tenants dirty (figures per tenant)", dirtyPct),
		Rounds: int64(n),
		Setup: func() (func() error, error) {
			pool := ckptstore.NewMemStore()
			m := &ckptstore.Manifest{Schema: ckptstore.ManifestSchema, Shards: 1, Round: 2,
				Tenants: make([]ckptstore.TenantRef, n)}
			for i := 0; i < n; i++ {
				p, err := ckptPayload(i, 0)
				if err != nil {
					return nil, err
				}
				res := pool.Put(p)
				m.Tenants[i] = ckptstore.TenantRef{
					Name:  fmt.Sprintf("bench-%05d", i),
					Chunk: ckptstore.FormatChunkID(res.Ref.ID),
				}
			}
			mutated := make([][]byte, dirty)
			for i := range mutated {
				p, err := ckptPayload(i, 1)
				if err != nil {
					return nil, err
				}
				mutated[i] = p
			}
			return func() error {
				for i := 0; i < dirty; i++ {
					m.Tenants[i].Chunk = ckptstore.FormatChunkID(pool.Put(mutated[i]).Ref.ID)
				}
				_, err := ckptstore.EncodeManifest(m)
				return err
			}, nil
		},
	}
}

// ckptManifestScenario measures the manifest codec round-trip at n tenants:
// encode, then decode with full validation.
func ckptManifestScenario(n int) Scenario {
	return Scenario{
		Name:   fmt.Sprintf("ckpt/manifest/n%d", n),
		Doc:    "manifest encode + validating decode round-trip (figures per tenant)",
		Rounds: int64(n),
		Setup: func() (func() error, error) {
			pool := ckptstore.NewMemStore()
			m := &ckptstore.Manifest{Schema: ckptstore.ManifestSchema, Shards: 1, Round: 1,
				Tenants: make([]ckptstore.TenantRef, n)}
			for i := 0; i < n; i++ {
				p, err := ckptPayload(i, 0)
				if err != nil {
					return nil, err
				}
				res := pool.Put(p)
				m.Tenants[i] = ckptstore.TenantRef{
					Name:  fmt.Sprintf("bench-%05d", i),
					Chunk: ckptstore.FormatChunkID(res.Ref.ID),
				}
			}
			return func() error {
				data, err := ckptstore.EncodeManifest(m)
				if err != nil {
					return err
				}
				_, err = ckptstore.DecodeManifest(data)
				return err
			}, nil
		},
	}
}

// ckptFaultInScenario measures paging a cold tenant back in: reading its
// one full chunk out of the pool and decoding the frame, which is the whole
// fault-in minus the chunk-file read. The JSON decode of the synthetic frame
// dominates it.
func ckptFaultInScenario() Scenario {
	return Scenario{
		Name:   "ckpt/faultin",
		Doc:    "cold-tenant fault-in: read one full chunk and decode the frame (rounds_per_op = 1: figures are per fault-in)",
		Rounds: 1,
		Setup: func() (func() error, error) {
			p, err := ckptPayload(0, 0)
			if err != nil {
				return nil, err
			}
			pool := ckptstore.NewMemStore()
			id := pool.Put(p).Ref.ID
			return func() error {
				payload, err := pool.ReadChunk(id)
				if err != nil {
					return err
				}
				var f ckptTenantFrame
				return json.Unmarshal(payload, &f)
			}, nil
		},
	}
}
