package ckptstore

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// A bundle is the hosted tier's checkpoint: a shard's manifest plus chunks.
// A push carries only the chunks the receiver has not acknowledged yet — a
// steady-state push is the dirty tenants' delta chunks and a small manifest —
// while a handoff or a stored checkpoint carries every chunk its manifest
// needs.

// bundleMagic opens every encoded bundle.
const bundleMagic = "rrcb"

// bundleVersion is the bundle container version.
const bundleVersion = 1

// MaxBundleLen bounds one encoded bundle.
const MaxBundleLen = 256 << 20

// maxBundleChunks bounds the chunk table of one bundle.
const maxBundleChunks = 1 << 24

// Bundle is a decoded checkpoint bundle.
type Bundle struct {
	Manifest []byte            // encoded manifest (not yet validated)
	Chunks   map[uint64][]byte // encoded chunks by content address, all verified
}

// EncodeBundle serializes a manifest and a set of encoded chunks, verifying
// every chunk against its claimed content address first: the chunks come from
// the caller, so nothing vouches for them. Chunks are written in ascending ID
// order so the encoding is a pure function of the content.
func EncodeBundle(manifest []byte, chunks map[uint64][]byte) ([]byte, error) {
	for id, data := range chunks {
		if err := VerifyChunk(id, data); err != nil {
			return nil, err
		}
	}
	return encodeBundle(manifest, chunks)
}

// encodeBundle writes a bundle of chunks the caller has already verified.
func encodeBundle(manifest []byte, chunks map[uint64][]byte) ([]byte, error) {
	if len(manifest) == 0 || len(manifest) > MaxManifestLen {
		return nil, fmt.Errorf("ckptstore: bundle manifest of %d bytes out of range", len(manifest))
	}
	ids := make([]uint64, 0, len(chunks))
	size := len(bundleMagic) + 1 + 2*binary.MaxVarintLen64 + len(manifest)
	for id, data := range chunks {
		ids = append(ids, id)
		size += 8 + binary.MaxVarintLen64 + len(data)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := make([]byte, 0, size)
	buf = append(buf, bundleMagic...)
	buf = append(buf, bundleVersion)
	buf = binary.AppendUvarint(buf, uint64(len(manifest)))
	buf = append(buf, manifest...)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		data := chunks[id]
		var p [8]byte
		binary.BigEndian.PutUint64(p[:], id)
		buf = append(buf, p[:]...)
		buf = binary.AppendUvarint(buf, uint64(len(data)))
		buf = append(buf, data...)
	}
	if len(buf) > MaxBundleLen {
		return nil, fmt.Errorf("ckptstore: bundle of %d bytes exceeds the %d-byte bound", len(buf), MaxBundleLen)
	}
	return buf, nil
}

// DecodeBundle parses an encoded bundle, verifying every chunk against its
// claimed content address. Malformed input is an error, never a panic, and no
// partially-decoded state escapes. The manifest bytes are returned unvalidated
// so the caller can decide how to treat an unknown manifest schema.
func DecodeBundle(data []byte) (*Bundle, error) {
	if len(data) > MaxBundleLen {
		return nil, fmt.Errorf("ckptstore: bundle of %d bytes exceeds the %d-byte bound", len(data), MaxBundleLen)
	}
	if len(data) < len(bundleMagic)+1 || string(data[:len(bundleMagic)]) != bundleMagic {
		return nil, fmt.Errorf("ckptstore: not a bundle (bad magic)")
	}
	if v := data[len(bundleMagic)]; v != bundleVersion {
		return nil, fmt.Errorf("ckptstore: bundle version %d, want %d", v, bundleVersion)
	}
	rest := data[len(bundleMagic)+1:]
	mlen, n := binary.Uvarint(rest)
	if n <= 0 || mlen == 0 || mlen > MaxManifestLen {
		return nil, fmt.Errorf("ckptstore: bundle has bad manifest length")
	}
	rest = rest[n:]
	if uint64(len(rest)) < mlen {
		return nil, fmt.Errorf("ckptstore: bundle truncated in manifest")
	}
	manifest := append([]byte(nil), rest[:mlen]...)
	rest = rest[mlen:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > maxBundleChunks {
		return nil, fmt.Errorf("ckptstore: bundle has bad chunk count")
	}
	rest = rest[n:]
	chunks := make(map[uint64][]byte, count)
	for i := uint64(0); i < count; i++ {
		if len(rest) < 8 {
			return nil, fmt.Errorf("ckptstore: bundle truncated in chunk id")
		}
		id := binary.BigEndian.Uint64(rest[:8])
		rest = rest[8:]
		clen, n := binary.Uvarint(rest)
		if n <= 0 || clen > MaxChunkLen {
			return nil, fmt.Errorf("ckptstore: bundle chunk %016x has bad length", id)
		}
		rest = rest[n:]
		if uint64(len(rest)) < clen {
			return nil, fmt.Errorf("ckptstore: bundle truncated in chunk %016x", id)
		}
		chunk := append([]byte(nil), rest[:clen]...)
		rest = rest[clen:]
		if err := VerifyChunk(id, chunk); err != nil {
			return nil, err
		}
		if _, dup := chunks[id]; dup {
			return nil, fmt.Errorf("ckptstore: bundle repeats chunk %016x", id)
		}
		chunks[id] = chunk
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ckptstore: bundle carries %d trailing bytes", len(rest))
	}
	return &Bundle{Manifest: manifest, Chunks: chunks}, nil
}
