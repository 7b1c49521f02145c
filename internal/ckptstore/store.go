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

// PutResult describes one chunk put.
type PutResult struct {
	// Ref names the committed chunk.
	Ref Ref
	// Wrote reports whether new bytes landed; false means an identical chunk
	// already existed (deduplicated).
	Wrote bool
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
	dir string

	mu sync.Mutex
}

// Open opens (creating if needed) a chunk store rooted at dir. The second
// argument is inert: it bounded delta chains, which the store no longer
// writes, and stays only because the end-to-end benchmark (_perfbench)
// still passes it.
func Open(dir string, _ int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckptstore: creating chunk dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x.chunk", id))
}

// Put stores payload as a full chunk. The parent argument is inert: it named
// the chunk a delta applied to, and stays only because the end-to-end
// benchmark (_perfbench) still passes it.
func (s *Store) Put(payload []byte, _ Ref) (PutResult, error) {
	enc, id := EncodeFull(payload)
	wrote, err := s.write(id, enc)
	if err != nil {
		return PutResult{}, err
	}
	return PutResult{Ref: Ref{ID: id}, Wrote: wrote, Bytes: len(enc)}, nil
}

// PutChunk stores payload as a full chunk: Put in the form of the Chunks
// interface.
func (s *Store) PutChunk(payload []byte) (PutResult, error) { return s.Put(payload, Ref{}) }

// ReadChunk reads the payload committed under id, verified: Resolve in the
// form of the Chunks interface.
func (s *Store) ReadChunk(id uint64) ([]byte, error) {
	payload, _, err := s.Resolve(id)
	return payload, err
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

// Resolve reads the payload committed under id: one chunk file, verified
// against its content address, so a missing or corrupt chunk is an error. The
// depth result is inert and always 0: it counted the delta links walked, and
// stays only because the end-to-end benchmark (_perfbench) still reads it.
func (s *Store) Resolve(id uint64) ([]byte, int, error) {
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, 0, fmt.Errorf("ckptstore: reading chunk %016x: %w", id, err)
	}
	if err := VerifyChunk(id, data); err != nil {
		return nil, 0, err
	}
	return data[chunkHeaderLen:], 0, nil
}

// Closure returns the set of chunk IDs a restore from roots may read: the
// roots themselves, since every chunk is a full image. It reads nothing and
// never fails; it stays only because the end-to-end benchmark (_perfbench)
// still calls it.
func (s *Store) Closure(roots []uint64) (map[uint64]bool, error) {
	return idSet(roots), nil
}

// GC removes every committed chunk outside roots. Orphans are exactly the
// chunks a crash can strand between a chunk write and a manifest rename: no
// committed manifest references them, so no restore will ever read them, and
// removing them is safe at any commit point. GC lists the chunk directory and
// reads no chunk; restore and fault-in verify what they read. Returns the
// number of chunks removed.
func (s *Store) GC(roots []uint64) (int, error) {
	live := idSet(roots)
	s.mu.Lock()
	defer s.mu.Unlock()
	ids, err := s.List()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, id := range ids {
		if live[id] {
			continue
		}
		if err := os.Remove(s.path(id)); err != nil {
			return removed, fmt.Errorf("ckptstore: removing orphan chunk %016x: %w", id, err)
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

// idSet turns a list of chunk IDs into a set.
func idSet(ids []uint64) map[uint64]bool {
	set := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// MemStore is the in-memory chunk pool of the hosted tier and of decision
// logs without a state dir: the worker side accumulates cut chunks in one,
// the dispatcher keeps pushed bundle chunks in another so the next push may
// reference the chunks of tenants that did not change, and a recording
// classic shard without a state dir keeps its log segments in its own. Same
// addressing as the disk store, no durability.
// Every pooled chunk was verified on entry or encoded by the pool, so reads
// never re-hash. Not safe for concurrent writes: the worker's pool belongs to
// its shard goroutine, and the dispatcher never writes a pool once a lease
// holds it (a push is admitted into a clone), so concurrent pushes only read
// it.
type MemStore struct {
	chunks map[uint64][]byte
}

// NewMemStore returns an empty in-memory chunk pool.
func NewMemStore() *MemStore {
	return &MemStore{chunks: map[uint64][]byte{}}
}

// Clone returns a pool holding the same chunks. Chunk bytes are immutable
// and shared; only the index is copied, so a receiver can stage a bundle's
// chunks in the clone and keep the original if the bundle is rejected.
func (m *MemStore) Clone() *MemStore {
	c := &MemStore{chunks: make(map[uint64][]byte, len(m.chunks))}
	for id, data := range m.chunks {
		c.chunks[id] = data
	}
	return c
}

// Len returns the number of pooled chunks.
func (m *MemStore) Len() int { return len(m.chunks) }

// Has reports whether a chunk is pooled.
func (m *MemStore) Has(id uint64) bool {
	_, ok := m.chunks[id]
	return ok
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
		data, ok := m.chunks[id]
		if !ok {
			return nil, fmt.Errorf("ckptstore: chunk %016x not in pool", id)
		}
		chunks[id] = data
	}
	return encodeBundle(manifest, chunks)
}

// Put stores payload in the pool as a full chunk.
func (m *MemStore) Put(payload []byte) PutResult {
	enc, id := EncodeFull(payload)
	wrote := m.add(id, enc)
	return PutResult{Ref: Ref{ID: id}, Wrote: wrote, Bytes: len(enc)}
}

// PutChunk is Put in the form of the Chunks interface; it never fails.
func (m *MemStore) PutChunk(payload []byte) (PutResult, error) { return m.Put(payload), nil }

func (m *MemStore) add(id uint64, enc []byte) bool {
	if _, ok := m.chunks[id]; ok {
		return false
	}
	m.chunks[id] = enc
	return true
}

// ReadChunk returns the payload pooled under id. The payload aliases the
// pooled chunk, which is immutable: callers must not modify it.
func (m *MemStore) ReadChunk(id uint64) ([]byte, error) {
	data, ok := m.chunks[id]
	if !ok {
		return nil, fmt.Errorf("ckptstore: chunk %016x not in pool", id)
	}
	return data[chunkHeaderLen:], nil
}

// Prune drops every pooled chunk outside live.
func (m *MemStore) Prune(live map[uint64]bool) {
	for id := range m.chunks {
		if !live[id] {
			delete(m.chunks, id)
		}
	}
}
