package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// WireSchemaV2 is the negotiated binary wire format: length-prefixed
// little-endian frames carrying the same submit/tick/round/checkpoint payloads
// as the JSON schema. A request decoded from a binary frame carries this
// schema string; the JSON codec keeps requiring WireSchema exactly, so the
// Schema field always names the codec the request actually traveled in.
//
// JSON stays first-class: it is the debugging format and the differential
// oracle — every binary codec property is tested by comparing against the
// JSON round trip of the same value.
const WireSchemaV2 = "rrserve/v2"

// Content types negotiated on /v1/jobs, /v1/tick, and /v1/round. A request
// with ContentTypeBinary carries a binary frame; a request with any other
// (or no) Content-Type is decoded as JSON, which keeps old clients working
// unchanged. A response is binary only when the request's Accept includes
// ContentTypeBinary. Error responses are always JSON (ErrorResponse): errors
// are for humans and fallback logic, and must survive a codec mismatch.
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-rrserve-bin"
)

// Binary frame layout (all integers little-endian):
//
//	offset  size  field
//	0       2     magic "rB"
//	2       1     version (2)
//	3       1     frame type (FrameType)
//	4       4     payload length
//	8       ...   payload
//
// The payload length is authoritative: a frame whose buffer is shorter is
// truncated (ErrFrameTruncated), longer carries trailing garbage
// (ErrFrameHeader), and a declared length beyond MaxFramePayload is rejected
// before any payload is touched (ErrFrameOversized).
const (
	frameMagic0  = 'r'
	frameMagic1  = 'B'
	frameVersion = 2

	// FrameHeaderLen is the fixed frame header size in bytes.
	FrameHeaderLen = 8

	// MaxFramePayload caps a frame's declared payload length. Checkpoint
	// frames carry full shard state, so the bound matches the largest HTTP
	// body any endpoint accepts.
	MaxFramePayload = 64 << 20
)

// FrameType tags a binary frame's payload.
type FrameType byte

// Frame types of the rrserve/v2 wire.
const (
	FrameSubmit FrameType = iota + 1
	FrameSubmitResponse
	FrameTick
	FrameTickResponse
	FrameRound
	FrameCheckpoint
)

// Typed frame errors: negotiation and robustness tests match on these with
// errors.Is, and the HTTP layer maps them all to 400s.
var (
	// ErrFrameHeader marks a malformed header or payload structure: bad
	// magic, unknown version or type, or trailing bytes after the payload.
	ErrFrameHeader = errors.New("serve: malformed binary frame")
	// ErrFrameTruncated marks a frame shorter than its declared length (a
	// mid-frame connection drop surfaces as this or as a body read error).
	ErrFrameTruncated = errors.New("serve: truncated binary frame")
	// ErrFrameOversized marks a declared payload length beyond MaxFramePayload.
	ErrFrameOversized = errors.New("serve: binary frame length exceeds bound")
)

// binJobLen is the per-job payload size: id int64, color int32, delay int64.
const binJobLen = 20

// appendFrameHeader appends a header with a zero payload length, to be
// patched by patchFrameLen once the payload is in place.
func appendFrameHeader(dst []byte, t FrameType) []byte {
	return append(dst, frameMagic0, frameMagic1, frameVersion, byte(t), 0, 0, 0, 0)
}

// patchFrameLen writes the payload length into the header of the frame that
// starts at start. The caller guarantees the header was appended at start.
func patchFrameLen(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+4:start+8], uint32(len(dst)-start-FrameHeaderLen))
	return dst
}

// SplitFrame validates a complete frame and returns its type and payload.
// The payload aliases data; callers that retain it must copy.
func SplitFrame(data []byte) (FrameType, []byte, error) {
	if len(data) < FrameHeaderLen {
		return 0, nil, fmt.Errorf("%w: %d bytes, header needs %d", ErrFrameTruncated, len(data), FrameHeaderLen)
	}
	if data[0] != frameMagic0 || data[1] != frameMagic1 {
		return 0, nil, fmt.Errorf("%w: bad magic 0x%02x%02x", ErrFrameHeader, data[0], data[1])
	}
	if data[2] != frameVersion {
		return 0, nil, fmt.Errorf("%w: version %d, want %d", ErrFrameHeader, data[2], frameVersion)
	}
	t := FrameType(data[3])
	if t < FrameSubmit || t > FrameCheckpoint {
		return 0, nil, fmt.Errorf("%w: unknown frame type %d", ErrFrameHeader, data[3])
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: declared payload %d, max %d", ErrFrameOversized, n, MaxFramePayload)
	}
	payload := data[FrameHeaderLen:]
	if uint64(len(payload)) < uint64(n) {
		return 0, nil, fmt.Errorf("%w: payload %d of declared %d bytes", ErrFrameTruncated, len(payload), n)
	}
	if uint64(len(payload)) > uint64(n) {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes after payload", ErrFrameHeader, uint64(len(payload))-uint64(n))
	}
	return t, payload[:n], nil
}

// splitTypedFrame is SplitFrame plus a frame-type check.
func splitTypedFrame(data []byte, want FrameType) ([]byte, error) {
	t, payload, err := SplitFrame(data)
	if err != nil {
		return nil, err
	}
	if t != want {
		return nil, fmt.Errorf("%w: frame type %d, want %d", ErrFrameHeader, t, want)
	}
	return payload, nil
}

// AppendSubmitBinary validates req and appends its binary frame to dst.
// Schema may be WireSchema or WireSchemaV2 (the frame's version byte is the
// schema on the wire); everything else is held to the same invariants as the
// JSON encoder.
func AppendSubmitBinary(dst []byte, req *SubmitRequest) ([]byte, error) {
	if req.Schema != WireSchema && req.Schema != WireSchemaV2 {
		return dst, fmt.Errorf("serve: submit schema %q, want %q or %q", req.Schema, WireSchema, WireSchemaV2)
	}
	if err := validateSubmitMeta(req.Class, req.Epoch); err != nil {
		return dst, err
	}
	var ck delayChecker
	if err := validateSubmitBody(req.Tenant, req.Jobs, &ck); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = appendFrameHeader(dst, FrameSubmit)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(req.Tenant)))
	dst = append(dst, req.Tenant...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(req.Jobs)))
	for i := range req.Jobs {
		j := &req.Jobs[i]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(j.ID))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(j.Color))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(j.Delay))
	}
	// Optional routing-metadata trailer: [u16 class len][class][i64 epoch].
	// Emitted only when either field is set, so legacy frames (and their
	// golden bytes) are unchanged — the canonical encoding of a metadata-free
	// batch has no trailer.
	if req.Class != "" || req.Epoch != 0 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(req.Class)))
		dst = append(dst, req.Class...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Epoch))
	}
	return patchFrameLen(dst, start), nil
}

// EncodeSubmitBinary validates and serializes a submit request as one binary
// frame.
func EncodeSubmitBinary(req *SubmitRequest) ([]byte, error) {
	return AppendSubmitBinary(nil, req)
}

// DecodeSubmitBinary parses and validates a binary submit frame. It never
// panics on arbitrary bytes, and any frame it accepts re-encodes
// (EncodeSubmitBinary) to an equivalent batch — the fixed-point property
// FuzzDecodeSubmitBinary pins, mirroring the JSON decoder's.
func DecodeSubmitBinary(data []byte) (*SubmitRequest, error) {
	req := &SubmitRequest{}
	if err := DecodeSubmitBinaryInto(req, data); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeSubmitBinaryInto decodes a binary submit frame into req, reusing
// req.Jobs capacity. With a pooled request (AcquireSubmitRequest) and an
// interned tenant the steady-state decode path performs zero heap
// allocations — the property the AllocsPerRun pins hold the hot path to.
func DecodeSubmitBinaryInto(req *SubmitRequest, data []byte) error {
	payload, err := splitTypedFrame(data, FrameSubmit)
	if err != nil {
		return err
	}
	if len(payload) < 2 {
		return fmt.Errorf("%w: submit payload missing tenant length", ErrFrameTruncated)
	}
	tl := int(binary.LittleEndian.Uint16(payload))
	rest := payload[2:]
	if tl > MaxTenantLen {
		return fmt.Errorf("serve: tenant id of %d bytes, max %d", tl, MaxTenantLen)
	}
	if tl > len(rest) {
		return fmt.Errorf("%w: submit payload truncated inside tenant id", ErrFrameTruncated)
	}
	tb := rest[:tl]
	rest = rest[tl:]
	if err := validateTenantBytes(tb); err != nil {
		return err
	}
	if len(rest) < 4 {
		return fmt.Errorf("%w: submit payload missing job count", ErrFrameTruncated)
	}
	n := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if n == 0 {
		return fmt.Errorf("serve: submit batch for tenant %q has no jobs", tb)
	}
	if n > MaxBatchJobs {
		return fmt.Errorf("serve: submit batch has %d jobs, max %d", n, MaxBatchJobs)
	}
	if len(rest) < n*binJobLen {
		return fmt.Errorf("%w: %d job bytes for %d jobs (want %d)", ErrFrameTruncated, len(rest), n, n*binJobLen)
	}
	trailer := rest[n*binJobLen:]
	req.Class, req.Epoch = "", 0
	if len(trailer) > 0 {
		// Routing-metadata trailer: [u16 class len][class][i64 epoch].
		// Legacy frames simply end after the jobs.
		if len(trailer) < 2 {
			return fmt.Errorf("%w: submit trailer missing class length", ErrFrameTruncated)
		}
		cl := int(binary.LittleEndian.Uint16(trailer))
		if cl > MaxClassLen {
			return fmt.Errorf("serve: class name of %d bytes, max %d", cl, MaxClassLen)
		}
		if len(trailer) < 2+cl+8 {
			return fmt.Errorf("%w: submit trailer %d bytes, want %d", ErrFrameTruncated, len(trailer), 2+cl+8)
		}
		if len(trailer) > 2+cl+8 {
			return fmt.Errorf("%w: %d trailing bytes after submit trailer", ErrFrameHeader, len(trailer)-(2+cl+8))
		}
		cb := trailer[2 : 2+cl]
		if cl > 0 {
			if err := validateTenantBytes(cb); err != nil {
				return fmt.Errorf("serve: invalid class name: %w", err)
			}
			req.Class = tenantInterner.get(cb)
		}
		req.Epoch = int64(binary.LittleEndian.Uint64(trailer[2+cl:]))
		if err := validateSubmitMeta(req.Class, req.Epoch); err != nil {
			return err
		}
	}
	req.Schema = WireSchemaV2
	req.Tenant = tenantInterner.get(tb)
	if cap(req.Jobs) < n {
		req.Jobs = make([]SubmitJob, n)
	} else {
		req.Jobs = req.Jobs[:n]
	}
	off := 0
	for i := 0; i < n; i++ {
		req.Jobs[i] = SubmitJob{
			ID:    int64(binary.LittleEndian.Uint64(rest[off:])),
			Color: int32(binary.LittleEndian.Uint32(rest[off+8:])),
			Delay: int64(binary.LittleEndian.Uint64(rest[off+12:])),
		}
		off += binJobLen
	}
	var ck delayChecker
	return validateSubmitBody(req.Tenant, req.Jobs, &ck)
}

// AppendSubmitResponseBinary appends a submit response frame to dst.
func AppendSubmitResponseBinary(dst []byte, resp *SubmitResponse) []byte {
	start := len(dst)
	dst = appendFrameHeader(dst, FrameSubmitResponse)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(resp.Accepted))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(resp.Round))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(resp.Backlog))
	// Placement-epoch trailer, present only once the epoch is non-zero —
	// pre-reshard responses keep the legacy 20-byte payload.
	if resp.Epoch != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(resp.Epoch))
	}
	return patchFrameLen(dst, start)
}

// DecodeSubmitResponseBinary parses a submit response frame (20 bytes, or 28
// with the placement-epoch trailer).
func DecodeSubmitResponseBinary(data []byte) (*SubmitResponse, error) {
	payload, err := splitTypedFrame(data, FrameSubmitResponse)
	if err != nil {
		return nil, err
	}
	if len(payload) != 20 && len(payload) != 28 {
		return nil, fmt.Errorf("%w: submit response payload %d bytes, want 20 or 28", ErrFrameHeader, len(payload))
	}
	resp := &SubmitResponse{
		Schema:   WireSchemaV2,
		Accepted: int(binary.LittleEndian.Uint32(payload)),
		Round:    int64(binary.LittleEndian.Uint64(payload[4:])),
		Backlog:  int(int64(binary.LittleEndian.Uint64(payload[12:]))),
	}
	if len(payload) == 28 {
		resp.Epoch = int64(binary.LittleEndian.Uint64(payload[20:]))
	}
	return resp, nil
}

// EncodeTickBinary encodes a tick request frame: advance every shard of a
// classic service rounds rounds.
func EncodeTickBinary(rounds int) []byte {
	dst := appendFrameHeader(nil, FrameTick)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rounds))
	return patchFrameLen(dst, 0)
}

// DecodeTickBinary parses a tick request frame.
func DecodeTickBinary(data []byte) (rounds int, err error) {
	payload, err := splitTypedFrame(data, FrameTick)
	if err != nil {
		return 0, err
	}
	if len(payload) != 4 {
		return 0, fmt.Errorf("%w: tick payload %d bytes, want 4", ErrFrameHeader, len(payload))
	}
	return int(binary.LittleEndian.Uint32(payload)), nil
}

// EncodeTickResponseBinary encodes a tick/round response frame carrying the
// next round.
func EncodeTickResponseBinary(round int64) []byte {
	dst := appendFrameHeader(nil, FrameTickResponse)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(round))
	return patchFrameLen(dst, 0)
}

// DecodeTickResponseBinary parses a tick/round response frame.
func DecodeTickResponseBinary(data []byte) (int64, error) {
	payload, err := splitTypedFrame(data, FrameTickResponse)
	if err != nil {
		return 0, err
	}
	if len(payload) != 8 {
		return 0, fmt.Errorf("%w: tick response payload %d bytes, want 8", ErrFrameHeader, len(payload))
	}
	return int64(binary.LittleEndian.Uint64(payload)), nil
}

// roundFixedLen is the round payload's fixed prefix: shard u32, shard count
// u32, target i64. The batches follow as submit frames to the payload's end.
const roundFixedLen = 16

// AppendRoundBinary validates req and appends its binary frame to dst: the
// round call's fixed fields, then every batch as a complete submit frame
// (AppendSubmitBinary), so batches travel in the submit codec.
func AppendRoundBinary(dst []byte, req *RoundRequest) ([]byte, error) {
	if req.Schema != WireSchema && req.Schema != WireSchemaV2 {
		return dst, fmt.Errorf("serve: round schema %q, want %q or %q", req.Schema, WireSchema, WireSchemaV2)
	}
	if err := validateRoundMeta(req); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = appendFrameHeader(dst, FrameRound)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Shard))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(req.Shards))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Target))
	for i := range req.Batches {
		var err error
		if dst, err = AppendSubmitBinary(dst, &req.Batches[i]); err != nil {
			return dst[:start], fmt.Errorf("serve: round batch %d: %w", i, err)
		}
	}
	return patchFrameLen(dst, start), nil
}

// DecodeRoundBinary parses and validates a round frame. It never panics, and
// re-encoding what it accepts reproduces the frame (FuzzDecodeRoundBinary).
func DecodeRoundBinary(data []byte) (*RoundRequest, error) {
	payload, err := splitTypedFrame(data, FrameRound)
	if err != nil {
		return nil, err
	}
	if len(payload) < roundFixedLen {
		return nil, fmt.Errorf("%w: round payload %d bytes, want at least %d", ErrFrameTruncated, len(payload), roundFixedLen)
	}
	req := &RoundRequest{
		Schema: WireSchemaV2,
		Shard:  int(int32(binary.LittleEndian.Uint32(payload))),
		Shards: int(int32(binary.LittleEndian.Uint32(payload[4:]))),
		Target: int64(binary.LittleEndian.Uint64(payload[8:])),
	}
	for rest, i := payload[roundFixedLen:], 0; len(rest) > 0; i++ {
		if len(rest) < FrameHeaderLen {
			return nil, fmt.Errorf("%w: round batch %d cut inside its header", ErrFrameTruncated, i)
		}
		end := uint64(FrameHeaderLen) + uint64(binary.LittleEndian.Uint32(rest[4:]))
		if end > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: round batch %d declares %d bytes, %d left", ErrFrameTruncated, i, end, len(rest))
		}
		var b SubmitRequest
		if err := DecodeSubmitBinaryInto(&b, rest[:end]); err != nil {
			return nil, fmt.Errorf("serve: round batch %d: %w", i, err)
		}
		if end != uint64(FrameHeaderLen+2+len(b.Tenant)+4+binJobLen*len(b.Jobs)) {
			return nil, fmt.Errorf("%w: round batch %d carries a metadata trailer", ErrFrameHeader, i)
		}
		req.Batches = append(req.Batches, b)
		rest = rest[end:]
	}
	if err := validateRoundMeta(req); err != nil {
		return nil, err
	}
	return req, nil
}

// maxFrameWorkerLen bounds the worker name in a checkpoint frame. The
// dispatch layer enforces its own (tighter) bound after decoding; this one
// only keeps the frame parser honest.
const maxFrameWorkerLen = 512

// CheckpointFrame is the binary form of a shard checkpoint push: routing
// metadata plus the opaque checkpoint bytes, carried raw instead of embedded
// in a JSON document. The dispatch layer converts to/from its CheckpointPush
// and runs its own validation, so the two codecs share one invariant set.
type CheckpointFrame struct {
	Worker string
	Shard  int
	Epoch  int64
	Round  int64
	Final  bool
	Data   []byte
}

// EncodeCheckpointFrame serializes a checkpoint frame.
func EncodeCheckpointFrame(f *CheckpointFrame) ([]byte, error) {
	if len(f.Worker) == 0 || len(f.Worker) > maxFrameWorkerLen {
		return nil, fmt.Errorf("serve: checkpoint frame worker name of %d bytes, want 1..%d", len(f.Worker), maxFrameWorkerLen)
	}
	if len(f.Data) == 0 {
		return nil, fmt.Errorf("serve: checkpoint frame for shard %d has no data", f.Shard)
	}
	if len(f.Data) > MaxFramePayload-FrameHeaderLen-len(f.Worker)-32 {
		return nil, fmt.Errorf("serve: checkpoint frame data of %d bytes exceeds frame bound", len(f.Data))
	}
	dst := appendFrameHeader(make([]byte, 0, FrameHeaderLen+32+len(f.Worker)+len(f.Data)), FrameCheckpoint)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Worker)))
	dst = append(dst, f.Worker...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(f.Shard)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Epoch))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Round))
	final := byte(0)
	if f.Final {
		final = 1
	}
	dst = append(dst, final)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Data)))
	dst = append(dst, f.Data...)
	return patchFrameLen(dst, 0), nil
}

// DecodeCheckpointFrame parses a checkpoint frame. The Data slice aliases
// data; callers that retain it must copy.
func DecodeCheckpointFrame(data []byte) (*CheckpointFrame, error) {
	payload, err := splitTypedFrame(data, FrameCheckpoint)
	if err != nil {
		return nil, err
	}
	if len(payload) < 2 {
		return nil, fmt.Errorf("%w: checkpoint payload missing worker length", ErrFrameTruncated)
	}
	wl := int(binary.LittleEndian.Uint16(payload))
	rest := payload[2:]
	if wl == 0 || wl > maxFrameWorkerLen {
		return nil, fmt.Errorf("serve: checkpoint frame worker name of %d bytes, want 1..%d", wl, maxFrameWorkerLen)
	}
	if wl > len(rest) {
		return nil, fmt.Errorf("%w: checkpoint payload truncated inside worker name", ErrFrameTruncated)
	}
	worker := string(rest[:wl])
	rest = rest[wl:]
	if len(rest) < 25 {
		return nil, fmt.Errorf("%w: checkpoint payload %d fixed bytes, want 25", ErrFrameTruncated, len(rest))
	}
	f := &CheckpointFrame{
		Worker: worker,
		Shard:  int(int32(binary.LittleEndian.Uint32(rest))),
		Epoch:  int64(binary.LittleEndian.Uint64(rest[4:])),
		Round:  int64(binary.LittleEndian.Uint64(rest[12:])),
	}
	switch rest[20] {
	case 0:
	case 1:
		f.Final = true
	default:
		return nil, fmt.Errorf("%w: checkpoint final flag 0x%02x", ErrFrameHeader, rest[20])
	}
	dl := int(binary.LittleEndian.Uint32(rest[21:]))
	rest = rest[25:]
	if dl == 0 {
		return nil, fmt.Errorf("serve: checkpoint frame for shard %d has no data", f.Shard)
	}
	if dl != len(rest) {
		return nil, fmt.Errorf("%w: %d data bytes, declared %d", ErrFrameTruncated, len(rest), dl)
	}
	f.Data = rest
	return f, nil
}

// maxInternedTenants bounds the tenant interning table: beyond it, new
// tenant names fall back to plain per-decode allocation, so a hostile stream
// of unique names cannot pin unbounded memory.
const maxInternedTenants = 1 << 16

// internTable deduplicates tenant name strings across decodes. The read path
// is a lock-free-in-spirit RLock plus Go's allocation-free map[string] lookup
// by []byte key; only the first occurrence of a tenant allocates, which is
// what "zero steady-state allocs" means on the decode path.
type internTable struct {
	mu sync.RWMutex
	m  map[string]string
}

var tenantInterner = internTable{m: map[string]string{}}

func (ti *internTable) get(b []byte) string {
	ti.mu.RLock()
	s, ok := ti.m[string(b)] // compiler elides this conversion's allocation
	ti.mu.RUnlock()
	if ok {
		return s
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if s, ok := ti.m[string(b)]; ok {
		return s
	}
	if len(ti.m) >= maxInternedTenants {
		return string(b)
	}
	s = string(b)
	ti.m[s] = s
	return s
}

// PoolStats reports cumulative acquire/release counts of one pool. After
// every in-flight request has completed, Gets == Puts — the leak invariant
// the negotiation edge tests assert.
type PoolStats struct {
	Gets int64
	Puts int64
}

var (
	submitReqPool = sync.Pool{New: func() any { return &SubmitRequest{} }}
	submitReqGets atomic.Int64
	submitReqPuts atomic.Int64
)

// AcquireSubmitRequest takes a pooled request for DecodeSubmitBinaryInto.
// Release with ReleaseSubmitRequest once the request (and every error string
// derived from it) is no longer referenced.
func AcquireSubmitRequest() *SubmitRequest {
	submitReqGets.Add(1)
	req, _ := submitReqPool.Get().(*SubmitRequest)
	return req
}

// ReleaseSubmitRequest returns a request to the pool, keeping the Jobs
// capacity for reuse.
func ReleaseSubmitRequest(req *SubmitRequest) {
	submitReqPuts.Add(1)
	req.Schema = ""
	req.Tenant = ""
	req.Jobs = req.Jobs[:0]
	submitReqPool.Put(req)
}

// SubmitRequestPoolStats reports the submit-request pool's acquire/release
// balance.
func SubmitRequestPoolStats() PoolStats {
	return PoolStats{Gets: submitReqGets.Load(), Puts: submitReqPuts.Load()}
}

// maxPooledFrameBuf caps the capacity of a buffer returned to the pool, so a
// single outsized checkpoint cannot pin its high-water allocation forever.
const maxPooledFrameBuf = 4 << 20

// frameBuf is a pooled byte buffer for request bodies and encoded frames,
// wrapped in a struct so sync.Pool stores a single pointer.
type frameBuf struct {
	b []byte
}

var (
	frameBufPool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 4096)} }}
	frameBufGets atomic.Int64
	frameBufPuts atomic.Int64
)

func acquireFrameBuf() *frameBuf {
	frameBufGets.Add(1)
	fb, _ := frameBufPool.Get().(*frameBuf)
	return fb
}

func releaseFrameBuf(fb *frameBuf) {
	frameBufPuts.Add(1)
	if cap(fb.b) > maxPooledFrameBuf {
		return
	}
	fb.b = fb.b[:0]
	frameBufPool.Put(fb)
}

// FrameBufferPoolStats reports the frame-buffer pool's acquire/release
// balance.
func FrameBufferPoolStats() PoolStats {
	return PoolStats{Gets: frameBufGets.Load(), Puts: frameBufPuts.Load()}
}

// readFrom fills the buffer from r, reading at most limit bytes (the caller
// passes its bound plus one and checks the length, mirroring the LimitReader
// idiom). The buffer's capacity is reused across requests, so a steady-state
// read allocates nothing.
func (fb *frameBuf) readFrom(r io.Reader, limit int) error {
	b := fb.b[:0]
	for len(b) < limit {
		if len(b) == cap(b) {
			nb := make([]byte, len(b), 2*cap(b)+4096)
			copy(nb, b)
			b = nb
		}
		space := cap(b) - len(b)
		if space > limit-len(b) {
			space = limit - len(b)
		}
		n, err := r.Read(b[len(b) : len(b)+space])
		b = b[:len(b)+n]
		if err == io.EOF {
			fb.b = b
			return nil
		}
		if err != nil {
			fb.b = b
			return err
		}
	}
	fb.b = b
	return nil
}
