package ckptstore

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// ManifestSchema versions the manifest format. A manifest is the commit
// point of one shard's incremental checkpoint: a small JSON document naming,
// per tenant, the content-addressed chunk that holds its state. Writing the
// manifest (atomically, via internal/atomicio) is what commits a cut; chunks
// written before a crash that never made it into a committed manifest are
// orphans, garbage-collected and never read.
//
// v4 is the version that names the shard's decision log (Log) beside its
// tenant chunks, each of which is a full binary tenant payload without
// decision history (see internal/serve). A v1 manifest names JSON payloads,
// a v2 manifest may name delta chunks, and a v3 manifest names payloads
// that embed decision histories; this version reads none of them, so each
// is refused by its schema, evicted tenants included, before any chunk is
// opened.
const ManifestSchema = "rrckpt/v4"

// MaxManifestLen bounds one manifest's encoding. EncodeManifest refuses to
// write what DecodeManifest would refuse to read, so no cut commits a
// manifest its next boot cannot open.
const MaxManifestLen = 64 << 20

// maxManifestTenants bounds the tenant list of one manifest, far above any
// real shard but low enough that a hostile length cannot drive allocation.
const maxManifestTenants = 1 << 24

// Manifest is one shard's checkpoint commit record.
type Manifest struct {
	Schema string `json:"schema"`
	Shard  int    `json:"shard"`
	Shards int    `json:"shards"`
	// Round is the shard's next round at the cut; chunk payloads may record
	// earlier rounds (a clean tenant's chunk is reused across cuts), and the
	// restored scheduler fast-forwards the gap deterministically.
	Round int64 `json:"round"`
	// PlacementEpoch mirrors the serve-tier placement epoch at the cut.
	PlacementEpoch int64 `json:"placement_epoch,omitempty"`

	Tenants []TenantRef `json:"tenants,omitempty"`
	// Log names the shard's decision log as of the cut (see DecLog): its
	// sealed segments, then the chunk holding its open tail, as fixed-width
	// hex. Empty when the service records no decisions.
	Log []string `json:"log,omitempty"`
}

// TenantRef names one tenant's state chunk within a manifest.
type TenantRef struct {
	Name string `json:"name"`
	// Chunk is the content address, as fixed-width hex (JSON numbers cannot
	// carry a uint64 faithfully).
	Chunk string `json:"chunk"`
	// Evicted marks a cold tenant paged out of memory: its state lives only
	// in the store, and the serve tier faults it back in on next submission.
	Evicted bool `json:"evicted,omitempty"`
	// Epoch and Class are carried for evicted tenants only, so the serve tier
	// can answer decision queries and route reshards without faulting the
	// tenant in.
	Epoch int64  `json:"epoch,omitempty"`
	Class string `json:"class,omitempty"`
}

// ChunkID parses the reference's content address.
func (t TenantRef) ChunkID() (uint64, error) {
	id, err := parseChunkID(t.Chunk)
	if err != nil {
		return 0, fmt.Errorf("ckptstore: tenant %q %w", t.Name, err)
	}
	return id, nil
}

// LogIDs parses the content addresses of the manifest's log segments.
func (m *Manifest) LogIDs() ([]uint64, error) {
	ids := make([]uint64, len(m.Log))
	for i, s := range m.Log {
		id, err := parseChunkID(s)
		if err != nil {
			return nil, fmt.Errorf("ckptstore: decision log %w", err)
		}
		ids[i] = id
	}
	return ids, nil
}

func parseChunkID(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("chunk %q is not 16 hex digits", s)
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("chunk %q: %w", s, err)
	}
	return id, nil
}

// FormatChunkID renders a content address the way manifests carry it.
func FormatChunkID(id uint64) string { return fmt.Sprintf("%016x", id) }

// EncodeManifest validates and serializes a manifest (indented JSON, the
// repo's canonical state encoding). Tenants are sorted by name first so the
// encoding is a pure function of the manifest's content. An encoding over
// MaxManifestLen is refused.
func EncodeManifest(m *Manifest) ([]byte, error) {
	sort.Slice(m.Tenants, func(i, j int) bool { return m.Tenants[i].Name < m.Tenants[j].Name })
	if err := validateManifest(m); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := checkManifestLen(data); err != nil {
		return nil, err
	}
	return data, nil
}

// DecodeManifest parses and validates one manifest. It never panics on
// arbitrary bytes (FuzzDecodeManifest pins that), and anything it accepts
// re-encodes to the same bytes.
func DecodeManifest(data []byte) (*Manifest, error) {
	if err := checkManifestLen(data); err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ckptstore: decoding manifest: %w", err)
	}
	if err := validateManifest(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func checkManifestLen(data []byte) error {
	if len(data) > MaxManifestLen {
		return fmt.Errorf("ckptstore: manifest of %d bytes exceeds the %d-byte bound", len(data), MaxManifestLen)
	}
	return nil
}

func validateManifest(m *Manifest) error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("ckptstore: manifest schema %q, want %q", m.Schema, ManifestSchema)
	}
	if m.Shard < 0 || m.Shards < 1 || m.Shard >= m.Shards {
		return fmt.Errorf("ckptstore: manifest names shard %d of %d", m.Shard, m.Shards)
	}
	if m.Round < 0 {
		return fmt.Errorf("ckptstore: manifest has negative round %d", m.Round)
	}
	if m.PlacementEpoch < 0 {
		return fmt.Errorf("ckptstore: manifest has negative placement epoch %d", m.PlacementEpoch)
	}
	if len(m.Tenants) > maxManifestTenants {
		return fmt.Errorf("ckptstore: manifest lists %d tenants, exceeding the %d bound", len(m.Tenants), maxManifestTenants)
	}
	for i := range m.Tenants {
		t := &m.Tenants[i]
		if t.Name == "" {
			return fmt.Errorf("ckptstore: manifest tenant %d has an empty name", i)
		}
		if i > 0 && m.Tenants[i-1].Name >= t.Name {
			return fmt.Errorf("ckptstore: manifest tenants out of order at %q", t.Name)
		}
		if _, err := t.ChunkID(); err != nil {
			return err
		}
		if t.Epoch < 0 {
			return fmt.Errorf("ckptstore: tenant %q has negative epoch %d", t.Name, t.Epoch)
		}
		if t.Epoch > m.Round {
			return fmt.Errorf("ckptstore: tenant %q epoch %d exceeds manifest round %d", t.Name, t.Epoch, m.Round)
		}
		if !t.Evicted && (t.Epoch != 0 || t.Class != "") {
			return fmt.Errorf("ckptstore: tenant %q carries evicted-only fields without the evicted flag", t.Name)
		}
	}
	if len(m.Log) > maxManifestTenants {
		return fmt.Errorf("ckptstore: manifest lists %d log segments, exceeding the %d bound", len(m.Log), maxManifestTenants)
	}
	_, err := m.LogIDs()
	return err
}

// Roots collects the manifest's referenced chunk IDs, tenant chunks and log
// segments: the GC roots one shard contributes, and the chunks a bundle of
// the manifest carries.
func (m *Manifest) Roots() ([]uint64, error) {
	roots := make([]uint64, 0, len(m.Tenants)+len(m.Log))
	for i := range m.Tenants {
		id, err := m.Tenants[i].ChunkID()
		if err != nil {
			return nil, err
		}
		roots = append(roots, id)
	}
	ids, err := m.LogIDs()
	return append(roots, ids...), err
}
