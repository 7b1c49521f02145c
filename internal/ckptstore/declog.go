package ckptstore

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SegmentBytes is the size at which a decision log seals its open tail into
// an immutable segment. Every cut writes the tail as one more chunk, so a
// steady-state cut (and a hosted push) carries at most this many bytes of
// history plus the segments sealed since the previous cut, and a manifest
// lists one 16-hex-digit ID per sealed segment. The bound trades the two:
// a fleet-shaped record is 45 bytes (32 of them the decision), so a
// four-tenant fleet shard logs about 174 bytes a round and seals every ~24
// rounds. In CI's dispatch-smoke load the mean push was 2.4 KB at 4 KiB,
// 3.6 KB at 8 KiB and 4.4 KB at 16 KiB; a larger bound pays only once a
// shard's history passes about 0.9 MB, where the manifest's ID list (19
// bytes per segment) outgrows the tail it saves.
const SegmentBytes = 4 << 10

// segmentMagic and segmentVersion open every log segment payload (the body
// of a log chunk). The magic differs from a tenant payload's format byte,
// so a tenant chunk named as a segment is refused at its first byte.
const (
	segmentMagic     = "rrdl"
	segmentVersion   = 1
	segmentHeaderLen = len(segmentMagic) + 1
)

// maxLogRecordLen bounds a record's tenant name and its decision payload.
const maxLogRecordLen = 1 << 20

// Chunks is a chunk store a decision log keeps its segments in: the on-disk
// Store or an in-memory MemStore.
type Chunks interface {
	PutChunk(payload []byte) (PutResult, error)
	ReadChunk(id uint64) ([]byte, error)
}

// DecLog is one shard's decision log: the only home of recorded decisions.
// A record is a tenant name, the global round of the decision and its
// payload; the log stores only non-trivial decisions, and readers
// synthesize the empty rounds, which keeps it linear in decisions made
// rather than in tenants × rounds.
//
// Records accumulate in an open tail in memory. A tail that reaches
// SegmentBytes is sealed: written as one chunk to the shard's chunk store
// and never changed again. A cut (Cut) writes the tail as one more chunk and
// returns the segment list a manifest names, so a manifest names exactly
// the log as of its cut: a crash loses the records after the last cut, and
// no record past a committed cut exists to roll back.
//
// Not safe for concurrent use: each log is owned by its shard goroutine.
type DecLog struct {
	chunks Chunks
	segs   []uint64 // sealed segments, in append order
	tail   []byte   // the open segment: header, then records
	bytes  int64    // record bytes across segments and tail
}

// NewDecLog returns an empty log over chunks.
func NewDecLog(chunks Chunks) *DecLog {
	return &DecLog{chunks: chunks, tail: segmentHeader(nil)}
}

func segmentHeader(b []byte) []byte { return append(append(b, segmentMagic...), segmentVersion) }

// OpenDecLog reopens the log a manifest names: ids are its segments in
// append order. Every segment is read and every record passed to check (nil
// checks nothing), so a missing or malformed segment refuses the log. A last
// segment under SegmentBytes is the tail a cut wrote: it reopens as the
// open tail, and appends extend it.
func OpenDecLog(chunks Chunks, ids []uint64, check func(tenant string, round int64, payload []byte) error) (*DecLog, error) {
	l := NewDecLog(chunks)
	for i, id := range ids {
		seg, err := chunks.ReadChunk(id)
		if err == nil {
			err = ReadSegment(seg, check)
		}
		if err != nil {
			return nil, fmt.Errorf("ckptstore: decision log segment %016x: %w", id, err)
		}
		l.bytes += int64(len(seg) - segmentHeaderLen)
		if i == len(ids)-1 && len(seg) < SegmentBytes {
			l.tail = append(l.tail[:0], seg...)
		} else {
			l.segs = append(l.segs, id)
		}
	}
	return l, nil
}

// Append records one decision, sealing the tail when it reaches
// SegmentBytes. A failed seal keeps the record in the tail and returns the
// error; the next append tries again.
func (l *DecLog) Append(tenant string, round int64, payload []byte) error {
	if round < 0 {
		return fmt.Errorf("ckptstore: negative decision round %d", round)
	}
	if len(tenant) == 0 || len(tenant) > maxLogRecordLen || len(payload) > maxLogRecordLen {
		return fmt.Errorf("ckptstore: decision log record out of bounds (tenant %d bytes, payload %d bytes)", len(tenant), len(payload))
	}
	n := len(l.tail)
	l.tail = appendRecord(l.tail, tenant, round, payload)
	l.bytes += int64(len(l.tail) - n)
	if len(l.tail) < SegmentBytes {
		return nil
	}
	res, err := l.chunks.PutChunk(l.tail)
	if err != nil {
		return fmt.Errorf("ckptstore: sealing decision log segment: %w", err)
	}
	l.segs = append(l.segs, res.Ref.ID)
	l.tail = l.tail[:segmentHeaderLen]
	return nil
}

// Cut writes the open tail as one chunk, when it holds records, and returns
// the log as a manifest names it (Manifest.Log): the sealed segments, then
// the tail's chunk. The tail stays open; the next cut writes it again,
// grown.
func (l *DecLog) Cut() ([]string, error) {
	ids := l.segs
	if len(l.tail) > segmentHeaderLen {
		res, err := l.chunks.PutChunk(l.tail)
		if err != nil {
			return nil, fmt.Errorf("ckptstore: writing decision log tail: %w", err)
		}
		ids = append(ids[:len(ids):len(ids)], res.Ref.ID)
	}
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = FormatChunkID(id)
	}
	return names, nil
}

// Walk calls fn for every record in append order: the sealed segments, read
// back from the chunk store, then the tail. The payload aliases stored
// bytes; fn must copy what it keeps.
func (l *DecLog) Walk(fn func(tenant string, round int64, payload []byte) error) error {
	if err := WalkLog(l.chunks, l.segs, fn); err != nil {
		return err
	}
	return ReadSegment(l.tail, fn)
}

// Bytes returns the record bytes the log holds, sealed and open.
func (l *DecLog) Bytes() int64 { return l.bytes }

// WalkLog calls fn for every record of the segments ids names, in order,
// reading each segment from chunks once.
func WalkLog(chunks Chunks, ids []uint64, fn func(tenant string, round int64, payload []byte) error) error {
	for _, id := range ids {
		seg, err := chunks.ReadChunk(id)
		if err == nil {
			err = ReadSegment(seg, fn)
		}
		if err != nil {
			return fmt.Errorf("ckptstore: decision log segment %016x: %w", id, err)
		}
	}
	return nil
}

// IsSegment reports whether payload opens like a decision log segment.
func IsSegment(payload []byte) bool {
	return len(payload) >= segmentHeaderLen && string(payload[:len(segmentMagic)]) == segmentMagic &&
		payload[len(segmentMagic)] == segmentVersion
}

// ReadSegment walks the records of one segment payload in order, calling fn
// (when non-nil) per record. It refuses anything but a canonical record
// stream — the header, then records with minimal varints, a non-empty
// tenant name and a round that fits an int64 — so a segment it accepts
// re-encodes to the same bytes, and it never panics on arbitrary input.
// Payloads passed to fn alias seg.
func ReadSegment(seg []byte, fn func(tenant string, round int64, payload []byte) error) error {
	if !IsSegment(seg) {
		return fmt.Errorf("ckptstore: not a decision log segment")
	}
	rest := seg[segmentHeaderLen:]
	for len(rest) > 0 {
		nameLen, k := uvarint(rest)
		if k == 0 || nameLen == 0 || nameLen > maxLogRecordLen || uint64(len(rest)-k) < nameLen {
			return fmt.Errorf("ckptstore: decision log record has a bad tenant name")
		}
		tenant := string(rest[k : k+int(nameLen)])
		rest = rest[k+int(nameLen):]
		round, k := uvarint(rest)
		if k == 0 || round > math.MaxInt64 {
			return fmt.Errorf("ckptstore: decision log record of tenant %q has a bad round", tenant)
		}
		rest = rest[k:]
		payLen, k := uvarint(rest)
		if k == 0 || payLen > maxLogRecordLen || uint64(len(rest)-k) < payLen {
			return fmt.Errorf("ckptstore: decision log record of tenant %q has a bad payload", tenant)
		}
		payload := rest[k : k+int(payLen) : k+int(payLen)]
		rest = rest[k+int(payLen):]
		if fn != nil {
			if err := fn(tenant, int64(round), payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// uvarint reads a minimally encoded unsigned varint, returning its length,
// or 0 for a truncated, overflowing or overlong one.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, 0
	}
	return v, n
}

// appendRecord encodes one record: uvarint name length, name, uvarint
// round, uvarint payload length, payload.
func appendRecord(buf []byte, tenant string, round int64, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(tenant)))
	buf = append(buf, tenant...)
	buf = binary.AppendUvarint(buf, uint64(round))
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}
