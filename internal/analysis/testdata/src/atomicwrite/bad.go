// Package atomicwrite is the known-bad fixture for the atomicwrite
// analyzer: in-place writes to state/checkpoint paths.
package atomicwrite

import (
	"os"
	"path/filepath"
)

// SaveState's own name carries the vocabulary: every raw write inside is a
// finding.
func SaveState(dir string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, "out.json"), data, 0o644) // want: in-place state write
}

// Persist is vocabulary-free by name, but the path argument mentions a
// checkpoint field.
type store struct {
	checkpointPath string
}

func (s *store) Persist(data []byte) error {
	return os.WriteFile(s.checkpointPath, data, 0o644) // want: path mentions checkpoint
}

// CreateSnapshot covers the os.Create form.
func CreateSnapshot(dir string) (*os.File, error) {
	return os.Create(filepath.Join(dir, "snapshot.bin")) // want: os.Create on snapshot path
}

func statePathFor(dir string, shard int) string {
	return filepath.Join(dir, "shard.json")
}

// Flow taints a local through two assignments before the write.
func Flow(dir string, shard int, data []byte) error {
	p := statePathFor(dir, shard)
	tmp := p + ".new"
	return os.WriteFile(tmp, data, 0o644) // want: tainted via statePathFor
}

// chunkPath mirrors the checkpoint store's content-addressed layout.
func chunkPath(dir string, id uint64) string {
	return filepath.Join(dir, "0000000000000000.bin")
}

// CommitChunk is the chunk-writer shape: the path flows from chunkPath, so a
// raw in-place write is a finding (a torn chunk poisons every manifest that
// references it).
func CommitChunk(dir string, id uint64, enc []byte) error {
	p := chunkPath(dir, id)
	return os.WriteFile(p, enc, 0o644) // want: tainted via chunkPath
}

// PublishManifest covers the manifest vocabulary through a selected field.
type shardStore struct {
	manifestPath string
}

func (s *shardStore) Publish(data []byte) error {
	return os.WriteFile(s.manifestPath, data, 0o644) // want: path mentions manifest
}

// CommitChunkAtomic routes the same chunk write through the sanctioned
// helper: clean.
func CommitChunkAtomic(dir string, id uint64, enc []byte) error {
	return writeFileAtomic(chunkPath(dir, id), enc)
}

// WriteStats has no state vocabulary anywhere: clean.
func WriteStats(dir string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, "stats.csv"), data, 0o644)
}

// writeFileAtomic is the sanctioned helper (exempted by configuration).
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Atomic routes a state write through the sanctioned helper: clean.
func Atomic(dir string, data []byte) error {
	return writeFileAtomic(filepath.Join(dir, "state.json"), data)
}

// AppendStateLog opens a state path for writing in place: a finding, as an
// os.WriteFile there would be.
func AppendStateLog(dir string, data []byte) error {
	f, err := os.OpenFile(filepath.Join(dir, "state.log"), os.O_WRONLY|os.O_APPEND, 0o644) // want: OpenFile for writing
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	return err
}

// ReadState opens a state path read-only: clean.
func ReadState(dir string) (*os.File, error) {
	return os.OpenFile(filepath.Join(dir, "state.bin"), os.O_RDONLY, 0)
}

// slotWriter stands for the sanctioned slot writer: its open of a slot
// file for in-place, checksummed records is exempt by configuration.
type slotWriter struct {
	statePath string
}

func (w *slotWriter) open() (*os.File, error) {
	return os.OpenFile(w.statePath, os.O_RDWR|os.O_CREATE, 0o644)
}
