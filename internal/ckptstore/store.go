package ckptstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"rrsched/internal/atomicio"
)

// DefaultMaxChain is the hard bound on delta chain length when the caller
// does not configure one: the eighth consecutive delta cut of a tenant is
// folded back into a full chunk, so a restore never applies more than
// DefaultMaxChain deltas for any tenant.
const DefaultMaxChain = 8

// maxResolveDepth bounds chain walks defensively above any legal chain, so a
// corrupted store with a parent cycle terminates with an error instead of
// recursing forever.
const maxResolveDepth = 1024

// PutResult describes one chunk put.
type PutResult struct {
	// Ref names the committed chunk.
	Ref Ref
	// Wrote reports whether new bytes landed; false means an identical chunk
	// already existed (deduplicated).
	Wrote bool
	// Delta reports whether the chunk was stored as a delta.
	Delta bool
	// Folded reports whether a delta chain hit the length bound and was
	// folded into a full chunk (the compaction event).
	Folded bool
	// Bytes is the encoded chunk size (also counted when deduplicated — it is
	// the size a migration of this chunk would move).
	Bytes int
}

// Store is the on-disk content-addressed chunk store. One store serves every
// shard of a service: chunks are immutable and content-addressed, so sharing
// a directory is what makes reshard migration free of data movement. Writes
// go through internal/atomicio; the mutex serializes them so two shards
// evicting identical tenants never race on one temp file.
type Store struct {
	dir      string
	maxChain int

	mu sync.Mutex
}

// Open opens (creating if needed) a chunk store rooted at dir. maxChain
// bounds delta chains; 0 selects DefaultMaxChain.
func Open(dir string, maxChain int) (*Store, error) {
	if maxChain < 0 {
		return nil, fmt.Errorf("ckptstore: negative max chain %d", maxChain)
	}
	if maxChain == 0 {
		maxChain = DefaultMaxChain
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckptstore: creating chunk dir: %w", err)
	}
	return &Store{dir: dir, maxChain: maxChain}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x.chunk", id))
}

// PutFull stores payload as a full chunk.
func (s *Store) PutFull(payload []byte) (PutResult, error) {
	enc, id := EncodeFull(payload)
	wrote, err := s.write(id, enc)
	if err != nil {
		return PutResult{}, err
	}
	return PutResult{Ref: Ref{ID: id}, Wrote: wrote, Bytes: len(enc)}, nil
}

// Put stores payload, as a delta against parent when that is both legal
// (the chain bound keeps room) and smaller than a full chunk; otherwise as a
// full chunk. A zero parent ID always stores full.
func (s *Store) Put(payload []byte, parent Ref) (PutResult, error) {
	if parent.ID == 0 {
		return s.PutFull(payload)
	}
	if parent.Chain+1 > s.maxChain {
		// Compaction: the chain is at its bound, fold back to a full chunk.
		res, err := s.PutFull(payload)
		if err != nil {
			return PutResult{}, err
		}
		res.Folded = true
		return res, nil
	}
	parentPayload, _, err := s.Resolve(parent.ID)
	if err != nil {
		return PutResult{}, fmt.Errorf("ckptstore: resolving delta parent: %w", err)
	}
	ops := MakeDelta(parentPayload, payload)
	encDelta, deltaID := EncodeDelta(parent.ID, ops)
	encFull, fullID := EncodeFull(payload)
	if len(encDelta) >= len(encFull) {
		wrote, err := s.write(fullID, encFull)
		if err != nil {
			return PutResult{}, err
		}
		return PutResult{Ref: Ref{ID: fullID}, Wrote: wrote, Bytes: len(encFull)}, nil
	}
	wrote, err := s.write(deltaID, encDelta)
	if err != nil {
		return PutResult{}, err
	}
	return PutResult{Ref: Ref{ID: deltaID, Chain: parent.Chain + 1}, Wrote: wrote, Delta: true, Bytes: len(encDelta)}, nil
}

// write commits encoded chunk bytes under their content address, returning
// whether new bytes landed (false = an identical chunk already exists).
func (s *Store) write(id uint64, enc []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.path(id)
	if _, err := os.Stat(path); err == nil {
		// Content-addressed dedupe: the bytes are already committed.
		return false, nil
	}
	if err := atomicio.WriteFile(path, enc, 0o644); err != nil {
		return false, fmt.Errorf("ckptstore: writing chunk %016x: %w", id, err)
	}
	return true, nil
}

// Has reports whether a chunk is committed.
func (s *Store) Has(id uint64) bool {
	_, err := os.Stat(s.path(id))
	return err == nil
}

// get reads and verifies one committed chunk.
func (s *Store) get(id uint64) ([]byte, error) {
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("ckptstore: reading chunk %016x: %w", id, err)
	}
	if err := VerifyChunk(id, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Resolve reconstructs the payload committed under id, following delta
// parents, and reports the chain length walked.
func (s *Store) Resolve(id uint64) ([]byte, int, error) {
	return resolveFrom(s.get, id)
}

// resolveFrom walks a chunk's delta chain through an arbitrary fetcher,
// applying deltas child-last. Shared by the disk store and the in-memory
// pool.
func resolveFrom(get func(uint64) ([]byte, error), id uint64) ([]byte, int, error) {
	// Collect the chain root-last, bounded against parent cycles.
	var chain []*Chunk
	for depth := 0; ; depth++ {
		if depth > maxResolveDepth {
			return nil, 0, fmt.Errorf("ckptstore: chunk %016x has a delta chain deeper than %d (cycle?)", id, maxResolveDepth)
		}
		data, err := get(id)
		if err != nil {
			return nil, 0, err
		}
		c, err := DecodeChunk(data)
		if err != nil {
			return nil, 0, fmt.Errorf("ckptstore: chunk %016x: %w", id, err)
		}
		chain = append(chain, c)
		if c.Kind == KindFull {
			break
		}
		id = c.Parent
	}
	payload := chain[len(chain)-1].Body
	for i := len(chain) - 2; i >= 0; i-- {
		var err error
		payload, err = ApplyDelta(payload, chain[i].Body)
		if err != nil {
			return nil, 0, err
		}
	}
	// The root's body aliases the read buffer; copy so callers own the bytes.
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, len(chain) - 1, nil
}

// Closure expands roots to the full set of chunk IDs a restore from them may
// read: every root plus every delta parent, transitively.
func (s *Store) Closure(roots []uint64) (map[uint64]bool, error) {
	return closureFrom(s.get, roots)
}

func closureFrom(get func(uint64) ([]byte, error), roots []uint64) (map[uint64]bool, error) {
	live := make(map[uint64]bool, len(roots))
	var walk func(id uint64, depth int) error
	walk = func(id uint64, depth int) error {
		if id == 0 || live[id] {
			return nil
		}
		if depth > maxResolveDepth {
			return fmt.Errorf("ckptstore: chunk %016x parent chain deeper than %d (cycle?)", id, maxResolveDepth)
		}
		data, err := get(id)
		if err != nil {
			return err
		}
		c, err := DecodeChunk(data)
		if err != nil {
			return fmt.Errorf("ckptstore: chunk %016x: %w", id, err)
		}
		live[id] = true
		if c.Kind == KindDelta {
			return walk(c.Parent, depth+1)
		}
		return nil
	}
	for _, id := range roots {
		if err := walk(id, 0); err != nil {
			return nil, err
		}
	}
	return live, nil
}

// GC removes every committed chunk outside the closure of roots. Orphans are
// exactly the chunks a crash can strand between a chunk write and a manifest
// rename: no committed manifest references them, so no restore will ever read
// them, and removing them is safe at any commit point. Returns the number of
// chunks removed.
func (s *Store) GC(roots []uint64) (int, error) {
	live, err := s.Closure(roots)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("ckptstore: scanning chunk dir: %w", err)
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".chunk") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, ".chunk"), 16, 64)
		if err != nil {
			continue // not a chunk file
		}
		if live[id] {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			return removed, fmt.Errorf("ckptstore: removing orphan chunk %s: %w", name, err)
		}
		removed++
	}
	return removed, nil
}

// List returns the committed chunk IDs in ascending order.
func (s *Store) List() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckptstore: scanning chunk dir: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".chunk") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, ".chunk"), 16, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// MemStore is the in-memory chunk pool of the hosted tier: the worker side
// accumulates cut chunks in one, and the dispatcher keeps pushed bundle
// chunks in another so the next push's deltas resolve. Same addressing and
// chain rules as the disk store, no durability. Every pooled chunk was
// verified on entry or encoded by the pool, so reads never re-hash. Not safe
// for concurrent writes: the worker's pool belongs to its shard goroutine,
// and the dispatcher never writes a pool once a lease holds it (a push folds
// into a clone), so concurrent folds only read it.
type MemStore struct {
	chunks   map[uint64][]byte
	maxChain int
}

// NewMemStore returns an empty in-memory chunk pool. maxChain bounds delta
// chains; 0 selects DefaultMaxChain.
func NewMemStore(maxChain int) *MemStore {
	if maxChain <= 0 {
		maxChain = DefaultMaxChain
	}
	return &MemStore{chunks: map[uint64][]byte{}, maxChain: maxChain}
}

// Clone returns a pool holding the same chunks. Chunk bytes are immutable
// and shared; only the index is copied, so a receiver can stage a bundle's
// chunks in the clone and keep the original if the bundle is rejected.
func (m *MemStore) Clone() *MemStore {
	c := &MemStore{chunks: make(map[uint64][]byte, len(m.chunks)), maxChain: m.maxChain}
	for id, data := range m.chunks {
		c.chunks[id] = data
	}
	return c
}

// Len returns the number of pooled chunks.
func (m *MemStore) Len() int { return len(m.chunks) }

// Get returns the encoded bytes of one pooled chunk.
func (m *MemStore) Get(id uint64) ([]byte, bool) {
	data, ok := m.chunks[id]
	return data, ok
}

// Add admits an encoded chunk under its claimed ID, verifying the content
// address first.
func (m *MemStore) Add(id uint64, data []byte) error {
	if err := VerifyChunk(id, data); err != nil {
		return err
	}
	if _, ok := m.chunks[id]; !ok {
		m.chunks[id] = append([]byte(nil), data...)
	}
	return nil
}

// AddBundle decodes an encoded bundle and admits every chunk it carries,
// returning the bundle's manifest bytes unvalidated. DecodeBundle verifies
// each chunk once and copies it out of data, so the pool takes the chunks as
// they are, without hashing or copying them again. A bundle that does not
// decode leaves the pool unchanged.
func (m *MemStore) AddBundle(data []byte) ([]byte, error) {
	b, err := DecodeBundle(data)
	if err != nil {
		return nil, err
	}
	for id, chunk := range b.Chunks {
		m.add(id, chunk)
	}
	return b.Manifest, nil
}

// EncodeBundle encodes a bundle of manifest plus the pooled chunks named in
// ids. Every pooled chunk was verified on entry (Add, AddBundle) or encoded
// by the pool itself (Put), so none is hashed again.
func (m *MemStore) EncodeBundle(manifest []byte, ids map[uint64]bool) ([]byte, error) {
	chunks := make(map[uint64][]byte, len(ids))
	for id := range ids {
		data, err := m.get(id)
		if err != nil {
			return nil, err
		}
		chunks[id] = data
	}
	return encodeBundle(manifest, chunks)
}

// Put stores payload in the pool, as a delta against parent when legal and
// smaller (same policy as Store.Put).
func (m *MemStore) Put(payload []byte, parent Ref) (PutResult, error) {
	if parent.ID != 0 && parent.Chain+1 <= m.maxChain {
		if parentPayload, _, err := m.Resolve(parent.ID); err == nil {
			ops := MakeDelta(parentPayload, payload)
			encDelta, deltaID := EncodeDelta(parent.ID, ops)
			encFull, fullID := EncodeFull(payload)
			if len(encDelta) < len(encFull) {
				wrote := m.add(deltaID, encDelta)
				return PutResult{Ref: Ref{ID: deltaID, Chain: parent.Chain + 1}, Wrote: wrote, Delta: true, Bytes: len(encDelta)}, nil
			}
			wrote := m.add(fullID, encFull)
			return PutResult{Ref: Ref{ID: fullID}, Wrote: wrote, Bytes: len(encFull)}, nil
		}
		// An unresolvable parent (pruned after an ack reset) falls through to
		// a self-contained full chunk.
	}
	enc, id := EncodeFull(payload)
	wrote := m.add(id, enc)
	res := PutResult{Ref: Ref{ID: id}, Wrote: wrote, Bytes: len(enc)}
	if parent.ID != 0 && parent.Chain+1 > m.maxChain {
		res.Folded = true
	}
	return res, nil
}

func (m *MemStore) add(id uint64, enc []byte) bool {
	if _, ok := m.chunks[id]; ok {
		return false
	}
	m.chunks[id] = enc
	return true
}

func (m *MemStore) get(id uint64) ([]byte, error) {
	data, ok := m.chunks[id]
	if !ok {
		return nil, fmt.Errorf("ckptstore: chunk %016x not in pool", id)
	}
	return data, nil
}

// Resolve reconstructs the payload pooled under id.
func (m *MemStore) Resolve(id uint64) ([]byte, int, error) {
	return resolveFrom(m.get, id)
}

// Closure expands roots through delta parents within the pool.
func (m *MemStore) Closure(roots []uint64) (map[uint64]bool, error) {
	return closureFrom(m.get, roots)
}

// Prune drops every pooled chunk outside live.
func (m *MemStore) Prune(live map[uint64]bool) {
	for id := range m.chunks {
		if !live[id] {
			delete(m.chunks, id)
		}
	}
}
