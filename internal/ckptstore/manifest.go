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
// v2 is the version whose tenant chunks hold binary tenant payloads (see
// internal/serve); a v1 manifest names JSON payloads this version does not
// read, so it is refused by its schema, evicted tenants included, before any
// chunk is opened.
const ManifestSchema = "rrckpt/v2"

// MaxManifestLen bounds one decoded manifest.
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
}

// TenantRef names one tenant's state chunk within a manifest.
type TenantRef struct {
	Name string `json:"name"`
	// Chunk is the content address, as fixed-width hex (JSON numbers cannot
	// carry a uint64 faithfully).
	Chunk string `json:"chunk"`
	// Chain is the delta chain length behind the chunk (0 = full chunk).
	Chain int `json:"chain,omitempty"`
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
	if len(t.Chunk) != 16 {
		return 0, fmt.Errorf("ckptstore: tenant %q chunk %q is not 16 hex digits", t.Name, t.Chunk)
	}
	id, err := strconv.ParseUint(t.Chunk, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("ckptstore: tenant %q chunk %q: %w", t.Name, t.Chunk, err)
	}
	return id, nil
}

// Ref returns the reference's chunk address and chain length.
func (t TenantRef) Ref() (Ref, error) {
	id, err := t.ChunkID()
	if err != nil {
		return Ref{}, err
	}
	return Ref{ID: id, Chain: t.Chain}, nil
}

// FormatChunkID renders a content address the way manifests carry it.
func FormatChunkID(id uint64) string { return fmt.Sprintf("%016x", id) }

// EncodeManifest validates and serializes a manifest (indented JSON, the
// repo's canonical state encoding). Tenants are sorted by name first so the
// encoding is a pure function of the manifest's content.
func EncodeManifest(m *Manifest) ([]byte, error) {
	sort.Slice(m.Tenants, func(i, j int) bool { return m.Tenants[i].Name < m.Tenants[j].Name })
	if err := validateManifest(m); err != nil {
		return nil, err
	}
	return json.MarshalIndent(m, "", "  ")
}

// DecodeManifest parses and validates one manifest. It never panics on
// arbitrary bytes (FuzzDecodeManifest pins that), and anything it accepts
// re-encodes to the same bytes.
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) > MaxManifestLen {
		return nil, fmt.Errorf("ckptstore: manifest of %d bytes exceeds the %d-byte bound", len(data), MaxManifestLen)
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
		if t.Chain < 0 || t.Chain > maxResolveDepth {
			return fmt.Errorf("ckptstore: tenant %q chain %d out of range", t.Name, t.Chain)
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
	return nil
}

// Roots collects the manifest's referenced chunk IDs (the GC roots one shard
// contributes).
func (m *Manifest) Roots() ([]uint64, error) {
	roots := make([]uint64, 0, len(m.Tenants))
	for i := range m.Tenants {
		id, err := m.Tenants[i].ChunkID()
		if err != nil {
			return nil, err
		}
		roots = append(roots, id)
	}
	return roots, nil
}
