package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HardenedServer wraps a handler in an http.Server with bounded read, header,
// write, and idle timeouts, so a stalled or hostile peer (slowloris) cannot
// pin a connection — and with it a drain — forever. Every daemon in the repo
// (rrserve, rrdispatch, rrworker) serves through this.
func HardenedServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		// WriteTimeout doubles as the write deadline on drain: a response that
		// cannot be flushed within it is abandoned rather than holding
		// Shutdown hostage.
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  2 * time.Minute,
	}
}

// maxSubmitBody caps the request body of POST /v1/jobs. Generous for
// MaxBatchJobs-sized batches while bounding what a hostile client can make
// the decoder buffer.
const maxSubmitBody = 8 << 20

// maxResponseBody caps what the typed client buffers from one response;
// recorded decision streams are the largest payloads and stay far below it.
const maxResponseBody = 64 << 20

// maxPlacementRetries bounds how many times a handler re-routes a command
// that bounced off a shard's epoch fence. Each retry means the placement
// flipped mid-flight; more than a handful in one request means the pool is
// resharding pathologically fast and the client should back off.
const maxPlacementRetries = 32

// Handler returns the service's HTTP API:
//
//	POST /v1/jobs       submit one batch for one tenant (wire.go)
//	POST /v1/tick       advance every shard of a classic service (virtual-time
//	                    mode only; ?rounds=n, or a tick frame); a hosted
//	                    service answers 503
//	POST /v1/round      one hosted shard's round call (RoundRequest): admit
//	                    its batches, tick it to a target round, push its
//	                    checkpoint
//	POST /v1/reshard    resize the pool under live traffic (ReshardRequest)
//	GET  /v1/stats      service + per-shard stats (StatsResponse)
//	GET  /v1/decisions  a tenant's recorded decision stream (?tenant=...)
//	GET  /metrics       merged per-shard metric snapshot (obs JSON format)
//	GET  /healthz       liveness: 200 once the shards are running
//	GET  /readyz        readiness: 200 while accepting jobs, 503 draining
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleSubmit)
	mux.HandleFunc("/v1/tick", s.handleTick)
	mux.HandleFunc("/v1/round", s.handleRound)
	mux.HandleFunc("/v1/reshard", s.handleReshard)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/decisions", s.handleDecisions)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// IsBinaryContent reports whether a Content-Type names the binary wire
// format (parameters after ';' are ignored).
func IsBinaryContent(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == ContentTypeBinary
}

// acceptsBinary reports whether an Accept header asks for binary responses.
// The check is a substring match on the media type: the client sends exactly
// one type, and anything fancier (q-values) still means "binary is fine".
func acceptsBinary(accept string) bool {
	return strings.Contains(accept, ContentTypeBinary)
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	binReq := IsBinaryContent(r.Header.Get("Content-Type"))
	binResp := acceptsBinary(r.Header.Get("Accept"))
	fb := acquireFrameBuf()
	defer releaseFrameBuf(fb)
	if err := fb.readFrom(r.Body, maxSubmitBody+1); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	body := fb.b
	if len(body) > maxSubmitBody {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", maxSubmitBody))
		return
	}
	// Decode by the request's Content-Type. The binary path reuses a pooled
	// request (zero steady-state allocations); the JSON path stays the
	// allocate-per-request debug oracle it always was. Errors are JSON either
	// way: they must be readable across a codec mismatch.
	var req *SubmitRequest
	if binReq {
		req = AcquireSubmitRequest()
		defer ReleaseSubmitRequest(req)
		if err := DecodeSubmitBinaryInto(req, body); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		var err error
		if req, err = DecodeSubmit(body); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	// Park: a reshard in progress holds new submissions at the gate until
	// routing flips; they then proceed under the new epoch.
	if g := s.gate.Load(); g != nil {
		s.met.parked.Inc()
		<-*g
	}
	pl := s.pl.Load()
	if req.Epoch != 0 && req.Epoch != pl.epoch {
		writeErrorCode(w, http.StatusConflict, ErrCodeEpochSkew, pl.epoch,
			fmt.Sprintf("request asserts placement epoch %d, service is at %d", req.Epoch, pl.epoch))
		return
	}
	sh := pl.shards[pl.ring.ShardOf(req.Tenant)]
	wm := sh.met.wire
	wm.BytesIn.Add(int64(len(body)))
	if binReq {
		wm.FramesBinary.Inc()
	} else {
		wm.FramesJSON.Inc()
	}
	var res submitResult
	for attempt := 0; ; attempt++ {
		// The function captures copies: sh, req and pl are reassigned, and a
		// closure over a reassigned variable moves it to the heap.
		target, batch, epoch := sh, req, pl.epoch
		reply := make(chan submitResult, 1)
		target.ch <- func() { reply <- target.handleSubmit(batch, epoch) }
		res = <-reply
		if res.status != statusWrongPlacement {
			break
		}
		// Lost a race with a reshard: the shard fenced onto a newer epoch
		// before our command arrived. Park if the gate is still up, reload the
		// placement, and re-route.
		if attempt >= maxPlacementRetries {
			writeError(w, http.StatusServiceUnavailable, "placement is changing; retry")
			return
		}
		if g := s.gate.Load(); g != nil {
			s.met.parked.Inc()
			<-*g
		}
		pl = s.pl.Load()
		if req.Epoch != 0 && req.Epoch != pl.epoch {
			writeErrorCode(w, http.StatusConflict, ErrCodeEpochSkew, pl.epoch,
				fmt.Sprintf("request asserts placement epoch %d, service is at %d", req.Epoch, pl.epoch))
			return
		}
		sh = pl.shards[pl.ring.ShardOf(req.Tenant)]
	}
	if res.status != http.StatusOK {
		if res.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", s.retryAfterSeconds())
		}
		writeError(w, res.status, res.err)
		return
	}
	resp := SubmitResponse{
		Schema:   WireSchema,
		Accepted: len(req.Jobs),
		Round:    res.round,
		Backlog:  res.backlog,
		Epoch:    pl.epoch,
	}
	if binResp {
		// The body buffer is free again (the decoded request does not alias
		// it), so the response frame is encoded into it — the response path
		// allocates nothing either.
		out := AppendSubmitResponseBinary(fb.b[:0], &resp)
		fb.b = out
		wm.BytesOut.Add(int64(len(out)))
		writeBinary(w, http.StatusOK, out)
		return
	}
	data, err := MarshalResponse(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	wm.BytesOut.Add(int64(len(data)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data) // best-effort: a vanished client owns its connection
}

// writeBinary writes one encoded frame with the binary content type.
func writeBinary(w http.ResponseWriter, status int, frame []byte) {
	w.Header().Set("Content-Type", ContentTypeBinary)
	w.WriteHeader(status)
	_, _ = w.Write(frame) // best-effort: a vanished client owns its connection
}

// retryAfterSeconds is the Retry-After value for 429s: one round duration
// rounded up (real-time mode), or 1 second in virtual-time mode, where the
// backlog drains only when the driver ticks.
func (s *Service) retryAfterSeconds() string {
	if s.Virtual() {
		return "1"
	}
	secs := int64(s.cfg.RoundEvery.Seconds()) + 1
	return strconv.FormatInt(secs, 10)
}

func (s *Service) handleTick(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.Virtual() {
		writeError(w, http.StatusConflict, "service runs a real-time round ticker; /v1/tick is for virtual-time mode")
		return
	}
	n := 1
	if IsBinaryContent(r.Header.Get("Content-Type")) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1024))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
			return
		}
		fn, err := DecodeTickBinary(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if fn <= 0 || fn > maxTickRounds {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid rounds %d (want 1..%d)", fn, maxTickRounds))
			return
		}
		n = fn
	} else if v := r.URL.Query().Get("rounds"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 || parsed > maxTickRounds {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid rounds %q (want 1..%d)", v, maxTickRounds))
			return
		}
		n = parsed
	}
	round, err := s.Tick(n)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if acceptsBinary(r.Header.Get("Accept")) {
		writeBinary(w, http.StatusOK, EncodeTickResponseBinary(round))
		return
	}
	writeJSON(w, http.StatusOK, TickResponse{Schema: StatsSchema, Round: round})
}

// TickResponse is the body of POST /v1/tick.
type TickResponse struct {
	Schema string `json:"schema"`
	Round  int64  `json:"round"`
}

// maxRoundBody caps a round call's body, in either codec, at the frame bound.
const maxRoundBody = FrameHeaderLen + MaxFramePayload

// handleRound serves one hosted shard's round call (POST /v1/round) in the
// codecs the headers name. A malformed request is a 400, a refusal carries
// its own status (Service.TickShard), and a failed push or a draining or
// classic service is a 503. An answered call counts in the wire counters.
func (s *Service) handleRound(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	binReq := IsBinaryContent(r.Header.Get("Content-Type"))
	fb := acquireFrameBuf()
	defer releaseFrameBuf(fb)
	if err := fb.readFrom(r.Body, maxRoundBody+1); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	if len(fb.b) > maxRoundBody {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", maxRoundBody))
		return
	}
	decode := DecodeRound
	if binReq {
		decode = DecodeRoundBinary
	}
	req, err := decode(fb.b)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	round, err := s.TickShard(req)
	if err != nil {
		status, re := http.StatusServiceUnavailable, (*roundError)(nil)
		if errors.As(err, &re) {
			status = re.status
		}
		writeError(w, status, err.Error())
		return
	}
	wm := s.pl.Load().shards[req.Shard].met.wire
	wm.BytesIn.Add(int64(len(fb.b)))
	if binReq {
		wm.FramesBinary.Inc()
	} else {
		wm.FramesJSON.Inc()
	}
	if !acceptsBinary(r.Header.Get("Accept")) {
		writeJSON(w, http.StatusOK, TickResponse{Schema: StatsSchema, Round: round})
		return
	}
	out := EncodeTickResponseBinary(round)
	wm.BytesOut.Add(int64(len(out)))
	writeBinary(w, http.StatusOK, out)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	tenantID := r.URL.Query().Get("tenant")
	if err := ValidateTenant(tenantID); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var res decisionsResult
	pl := s.pl.Load()
	for attempt := 0; ; attempt++ {
		sh, epoch := pl.shards[pl.ring.ShardOf(tenantID)], pl.epoch
		reply := make(chan decisionsResult, 1)
		sh.ch <- func() { reply <- sh.handleDecisions(tenantID, epoch) }
		res = <-reply
		if res.status != statusWrongPlacement {
			break
		}
		if attempt >= maxPlacementRetries {
			writeError(w, http.StatusServiceUnavailable, "placement is changing; retry")
			return
		}
		if g := s.gate.Load(); g != nil {
			<-*g
		}
		pl = s.pl.Load()
	}
	if res.status != http.StatusOK {
		writeError(w, res.status, res.err)
		return
	}
	writeJSON(w, http.StatusOK, res.resp)
}

// handleReshard resizes the pool under live traffic (POST /v1/reshard).
func (s *Service) handleReshard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 4096))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return
	}
	req, err := DecodeReshard(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := s.Reshard(req.Shards)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap, err := s.MergedMetrics()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := snap.WriteJSON(w); err != nil {
		return // client went away mid-write; nothing to salvage
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeBody(w, http.StatusOK, []byte("ok\n"))
}

func (s *Service) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeBody(w, http.StatusServiceUnavailable, []byte("draining\n"))
		return
	}
	writeBody(w, http.StatusOK, []byte("ready\n"))
}

// writeJSON writes v as indented JSON, matching json.MarshalIndent with
// two-space indent plus a trailing newline. The encoding is part of the
// /v1/decisions contract: the determinism tests reproduce it byte for byte.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := MarshalResponse(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data) // best-effort: a vanished client owns its connection
}

// MarshalResponse is the canonical response encoding of every JSON endpoint:
// MarshalIndent with two-space indent and a trailing newline. Exported so
// byte-identity tests (and clients that want to diff responses) can
// reproduce the exact bytes.
func MarshalResponse(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: encoding response: %w", err)
	}
	return append(data, '\n'), nil
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeErrorCode(w, status, "", 0, msg)
}

// writeErrorCode writes a typed error: code and epoch let clients react
// mechanically (epoch_skew → adopt the hinted epoch and retry).
func writeErrorCode(w http.ResponseWriter, status int, code string, epoch int64, msg string) {
	data, err := MarshalResponse(ErrorResponse{Error: msg, Code: code, Epoch: epoch})
	if err != nil {
		// Unreachable: ErrorResponse always marshals.
		data = []byte(`{"error":"encoding failure"}` + "\n")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data) // best-effort: a vanished client owns its connection
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.WriteHeader(status)
	_, _ = w.Write(body) // best-effort: a vanished client owns its connection
}
