package dispatch

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"rrsched/internal/serve"
)

// maxControlBody caps register and heartbeat bodies. Control messages are
// tiny; anything near the cap is hostile.
const maxControlBody = 1 << 20

// maxCheckpointBody caps one checkpoint push. A push after a lost ack or a
// fresh open carries every chunk of a shard, including recorded
// decision histories, so the bound is generous.
const maxCheckpointBody = 64 << 20

// Handler returns the dispatcher's HTTP API:
//
//	POST /v1/register    worker registration (RegisterRequest → RegisterResponse)
//	POST /v1/heartbeat   lease renewal + grant/revoke exchange
//	POST /v1/checkpoint  per-tick checkpoint bundle push, binary frames only
//	                     (409 on a stale epoch, 400 on a bad bundle, 415 on JSON)
//	POST /v1/reshard     fleet resize at the round boundary (409 when refused)
//	GET  /v1/placement   shard→worker placement table for drivers
//	GET  /v1/stats       dispatcher stats (workers, lease counts)
//	GET  /metrics        dispatcher metric snapshot (obs JSON format)
//	GET  /healthz        liveness
//	GET  /readyz         readiness (always ready; the dispatcher has no drain)
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", d.handleRegister)
	mux.HandleFunc("/v1/heartbeat", d.handleHeartbeat)
	mux.HandleFunc("/v1/checkpoint", d.handleCheckpoint)
	mux.HandleFunc("/v1/reshard", d.handleReshard)
	mux.HandleFunc("/v1/placement", d.handlePlacement)
	mux.HandleFunc("/v1/stats", d.handleStats)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, http.StatusOK, []byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, http.StatusOK, []byte("ready\n"))
	})
	return mux
}

// readBody buffers a POST body up to limit, mapping oversize to 413.
func readBody(w http.ResponseWriter, r *http.Request, limit int) ([]byte, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(limit)+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return nil, false
	}
	if len(body) > limit {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", limit))
		return nil, false
	}
	return body, true
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxControlBody)
	if !ok {
		return
	}
	req, err := DecodeRegister(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, d.register(req))
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxControlBody)
	if !ok {
		return
	}
	req, err := DecodeHeartbeat(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := d.heartbeat(req)
	if errors.Is(err, errUnknownWorker) {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (d *Dispatcher) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxCheckpointBody)
	if !ok {
		return
	}
	if !serve.IsBinaryContent(r.Header.Get("Content-Type")) {
		writeError(w, http.StatusUnsupportedMediaType, "checkpoint pushes travel as "+serve.ContentTypeBinary+" frames")
		return
	}
	req, err := DecodeCheckpointPush(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := d.storeCheckpoint(req); err != nil {
		switch {
		case errors.Is(err, errStaleEpoch):
			writeError(w, http.StatusConflict, err.Error())
		case errors.Is(err, errBadCheckpoint):
			writeError(w, http.StatusBadRequest, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeBody(w, http.StatusOK, []byte("{}\n"))
}

// handleReshard resizes the fleet. The request body is the serve layer's
// reshard message — one resize vocabulary across both tiers — and refusals
// (mid-round, missing checkpoints, same count) answer 409: the caller should
// finish a round and retry, not fix the request.
func (d *Dispatcher) handleReshard(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxControlBody)
	if !ok {
		return
	}
	req, err := serve.DecodeReshard(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := d.Reshard(req.Shards)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (d *Dispatcher) handlePlacement(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, d.Placement())
}

func (d *Dispatcher) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, d.Stats())
}

func (d *Dispatcher) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := d.Metrics().WriteJSON(w); err != nil {
		return // client went away mid-write; nothing to salvage
	}
}

// writeJSON and writeError reuse the serve layer's canonical response
// encoding, so every daemon in the repo answers in the same shape.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := serve.MarshalResponse(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data) // best-effort: a vanished client owns its connection
}

func writeError(w http.ResponseWriter, status int, msg string) {
	data, err := serve.MarshalResponse(serve.ErrorResponse{Error: msg})
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
