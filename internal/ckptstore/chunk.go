// Package ckptstore is the incremental checkpoint store of the serve tier: a
// content-addressed store of chunks, each one a full tenant image, small
// manifests that reference chunks instead of embedding state, a decision log
// whose sealed segments are chunks the manifests name too, and a bundle
// format for shipping manifests plus missing chunks over the dispatcher
// wire.
//
// The design mirrors the paper's cost-of-movement framing: a checkpoint cut
// pays bytes only for tenants whose state actually changed (dirty tracking in
// the serve tier), identical state is never written twice (content
// addressing dedupes), and a reshard moves references, not tenant images.
// Every chunk stands alone, so reading a tenant reads one chunk and the live
// set of a manifest is exactly the chunks it names. Chunks are immutable once
// written; manifests are the only mutable commit points, written atomically
// via internal/atomicio, so a crash between a chunk write and a manifest
// rename leaves orphan chunks that are garbage-collected and never read.
package ckptstore

import (
	"fmt"
	"hash/fnv"
)

// chunkMagic opens every chunk file. Distinct from JSON ('{') and from the
// bundle magic, so a sniffing reader can classify any artifact.
const chunkMagic = "rrck"

// chunkVersion is the chunk container version.
const chunkVersion = 1

// KindFull is the one chunk kind: the body is the complete payload. Kind 1
// was a delta against a parent chunk; it is no longer written or read.
const KindFull = 0

// chunkHeaderLen is the fixed prefix of every chunk: magic, version, kind.
const chunkHeaderLen = len(chunkMagic) + 2

// MaxChunkLen bounds one decoded chunk, the same order as the serve tier's
// largest checkpoint payloads; a length prefix beyond it is rejected before
// any allocation.
const MaxChunkLen = 64 << 20

// Chunk is one decoded chunk.
type Chunk struct {
	Kind int
	Body []byte // the full payload
}

// Ref names one committed chunk by its content address.
type Ref struct {
	ID uint64
}

// Hash64 is the chunk content address: FNV-1a 64 with the MurmurHash3 fmix64
// avalanche finalizer — the same recipe as the serve tier's tenant ring hash,
// stable across processes and architectures. The finalizer matters here for
// the same reason it does on the ring: raw FNV-1a barely mixes a trailing
// byte, and chunk payloads that differ only near the end (a round counter, an
// appended decision) must land on independent addresses.
func Hash64(data []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(data) // infallible per hash.Hash contract
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// EncodeFull encodes a full chunk around payload and returns the encoded
// bytes with their content address.
func EncodeFull(payload []byte) ([]byte, uint64) {
	buf := make([]byte, 0, chunkHeaderLen+len(payload))
	buf = append(buf, chunkMagic...)
	buf = append(buf, chunkVersion, KindFull)
	buf = append(buf, payload...)
	return buf, Hash64(buf)
}

// DecodeChunk parses one encoded chunk. It never panics on arbitrary bytes;
// malformed input is an error. The body aliases data.
func DecodeChunk(data []byte) (*Chunk, error) {
	if len(data) > MaxChunkLen {
		return nil, fmt.Errorf("ckptstore: chunk of %d bytes exceeds the %d-byte bound", len(data), MaxChunkLen)
	}
	if len(data) < chunkHeaderLen || string(data[:len(chunkMagic)]) != chunkMagic {
		return nil, fmt.Errorf("ckptstore: not a chunk (bad magic)")
	}
	if v := data[len(chunkMagic)]; v != chunkVersion {
		return nil, fmt.Errorf("ckptstore: chunk version %d, want %d", v, chunkVersion)
	}
	if k := data[len(chunkMagic)+1]; k != KindFull {
		return nil, fmt.Errorf("ckptstore: chunk kind %d, want %d (a full chunk)", k, KindFull)
	}
	return &Chunk{Kind: KindFull, Body: data[chunkHeaderLen:]}, nil
}

// VerifyChunk checks that encoded chunk bytes decode and carry the claimed
// content address. Bundles and stores use it so a corrupted or mislabeled
// chunk is refused at the door rather than resolved into tenant state.
func VerifyChunk(id uint64, data []byte) error {
	if _, err := DecodeChunk(data); err != nil {
		return err
	}
	if got := Hash64(data); got != id {
		return fmt.Errorf("ckptstore: chunk claims id %016x, content hashes to %016x", id, got)
	}
	return nil
}
