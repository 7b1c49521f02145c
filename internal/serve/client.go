package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rrsched/internal/obs"
)

// RetryPolicy controls the client's request retries: capped exponential
// backoff with jitter. Retries fire on transport failures (connection reset,
// refused, EOF mid-response) and on 500/502/504; a 429 is retried only under
// RetryBackpressure, waiting out the server's Retry-After when one is given.
// A 503 is never retried — it means the service is draining, and hammering a
// draining service only slows its exit.
//
// Retrying a submit is safe even when the first attempt's fate is unknown:
// batch admission is all-or-nothing and job IDs are strictly increasing, so a
// resend of a batch that did land is answered with 409 (duplicate), which the
// client reports as SubmitOutcome.Duplicate — admitted, just not by this
// attempt.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (>= 1). 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it, capped at MaxDelay. The actual wait is jittered
	// uniformly over [delay/2, delay).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// RetryBackpressure also retries 429 responses, waiting max(backoff,
	// Retry-After). Off, a 429 surfaces immediately as a Rejected outcome —
	// the right default for load generators that account for backpressure.
	RetryBackpressure bool
	// Seed seeds the jitter PRNG, keeping retry schedules reproducible.
	Seed int64
}

// DefaultRetryPolicy is what NewClient uses: a handful of quick attempts
// that ride out a worker failover or a dropped connection without masking
// backpressure.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: 1}
}

// SingleShot disables retries entirely: every outcome, including transport
// failures, surfaces on the first attempt.
func SingleShot() RetryPolicy {
	return RetryPolicy{MaxAttempts: 1}
}

func (p RetryPolicy) validate() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// WireMode selects the codec a client speaks on the submit/tick/round
// endpoints.
type WireMode int

const (
	// WireBinary (the zero value, and the default) speaks rrserve/v2 binary.
	WireBinary WireMode = iota
	// WireJSON speaks rrserve/v1 JSON: the explicit debugging format, and the
	// oracle the binary codec is differentially tested against.
	WireJSON
)

// String names the mode, matching rrload's -wire flag values.
func (m WireMode) String() string {
	if m == WireJSON {
		return "json"
	}
	return "binary"
}

// ParseWireMode parses an rrload-style -wire flag value.
func ParseWireMode(s string) (WireMode, error) {
	switch s {
	case "binary", "":
		return WireBinary, nil
	case "json":
		return WireJSON, nil
	default:
		return WireBinary, fmt.Errorf("serve: wire mode %q, want json or binary", s)
	}
}

// Client is a thin typed client for the rrserve HTTP API, used by rrload,
// the dispatcher/worker tier, the CI smoke jobs, and the end-to-end tests.
type Client struct {
	base   string
	hc     *http.Client
	policy RetryPolicy
	wire   WireMode
	// epoch is the last placement epoch the server reported; submits assert
	// it so a reshard the client has not seen yet surfaces as a typed 409
	// instead of landing on a stale shard's queue.
	epoch atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
	// sleep is time.Sleep unless a test injects a recorder.
	sleep func(time.Duration)
}

// NewClient returns a client for the service at base (e.g.
// "http://127.0.0.1:8080") with the default retry policy and the binary wire.
// The underlying http.Client reuses connections, which is what gives the load
// generator its throughput.
func NewClient(base string) *Client {
	return NewClientPolicy(base, DefaultRetryPolicy())
}

// NewClientPolicy returns a client with an explicit retry policy (and the
// binary wire).
func NewClientPolicy(base string, policy RetryPolicy) *Client {
	return NewClientWire(base, policy, WireBinary)
}

// NewClientWire returns a client with an explicit retry policy and wire mode.
func NewClientWire(base string, policy RetryPolicy, wire WireMode) *Client {
	policy = policy.validate()
	return &Client{
		base:   base,
		policy: policy,
		wire:   wire,
		rng:    rand.New(rand.NewSource(policy.Seed)),
		sleep:  time.Sleep,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
			},
		},
	}
}

// backoff returns the jittered wait before attempt (2nd attempt = 1), at
// least floor (a server-provided Retry-After).
func (c *Client) backoff(attempt int, floor time.Duration) time.Duration {
	d := c.policy.BaseDelay << (attempt - 1)
	if d > c.policy.MaxDelay || d <= 0 {
		d = c.policy.MaxDelay
	}
	c.mu.Lock()
	// Jitter uniformly over [d/2, d) so synchronized clients desynchronize.
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	if d < floor {
		d = floor
	}
	return d
}

// retryableStatus reports whether a response status warrants another attempt
// under the policy.
func (c *Client) retryableStatus(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	case http.StatusTooManyRequests:
		return c.policy.RetryBackpressure
	default:
		return false
	}
}

// do issues one request with retries and returns the final response body and
// status. Any returned status is from a completed HTTP exchange; an error
// means every attempt failed at the transport layer. contentType and accept,
// when non-empty, override the default JSON negotiation headers.
func (c *Client) do(method, path string, body []byte, contentType, accept string) (status int, respBody []byte, header http.Header, err error) {
	var lastErr error
	for attempt := 1; ; attempt++ {
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(body)
		}
		req, rerr := http.NewRequest(method, c.base+path, reader)
		if rerr != nil {
			return 0, nil, nil, fmt.Errorf("serve: building %s %s: %w", method, path, rerr)
		}
		if body != nil {
			if contentType == "" {
				contentType = ContentTypeJSON
			}
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, derr := c.hc.Do(req)
		retryAfter := time.Duration(0)
		if derr != nil {
			lastErr = fmt.Errorf("serve: %s %s: %w", method, path, derr)
		} else {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody))
			drainClose(resp.Body)
			if rerr == nil {
				if !c.retryableStatus(resp.StatusCode) {
					return resp.StatusCode, data, resp.Header, nil
				}
				lastErr = fmt.Errorf("serve: %s %s: %s", method, path, resp.Status)
				if v := resp.Header.Get("Retry-After"); v != "" {
					if secs, perr := strconv.Atoi(v); perr == nil && secs >= 0 {
						retryAfter = time.Duration(secs) * time.Second
					}
				}
			} else {
				lastErr = fmt.Errorf("serve: reading %s %s response: %w", method, path, rerr)
			}
		}
		if attempt >= c.policy.MaxAttempts {
			return 0, nil, nil, lastErr
		}
		c.sleep(c.backoff(attempt, retryAfter))
	}
}

// SubmitOutcome is the result of one submit call.
type SubmitOutcome struct {
	// Accepted is true for a 200 (the whole batch was queued).
	Accepted bool
	// Duplicate is true for a 409: every ID in the batch is at or below the
	// tenant's high-water mark, meaning the batch already landed (admission
	// is all-or-nothing) — the idempotent-resend answer. Callers treating
	// submits as at-least-once should count Accepted || Duplicate as success.
	//
	// The server verifies IDs, not payloads: Duplicate is only trustworthy
	// when the resend is the original batch, byte for byte. Resending with
	// different batch boundaries (re-chunking jobs across batches after a
	// failure) is outside the idempotency contract and can mark jobs admitted
	// that never were.
	Duplicate bool
	// Rejected is true for a 429 (watermark backpressure); RetryAfter is the
	// parsed Retry-After duration.
	Rejected   bool
	RetryAfter time.Duration
	// Refused is true for a 503 (service draining).
	Refused bool
	// Misdirected is true for a 421: a hosted worker that does not hold the
	// tenant's shard. The caller should refresh placement and resend.
	Misdirected bool
	// EpochSkew is true for a 409 carrying Code "epoch_skew": the request
	// asserted a placement epoch the service has moved past. Submit handles
	// it transparently unless the caller pinned SubmitRequest.Epoch itself.
	EpochSkew bool
	// Round and Backlog echo the SubmitResponse on acceptance.
	Round   int64
	Backlog int
	// Epoch is the placement epoch the server reported: the current one on
	// acceptance, or the retry hint on an EpochSkew 409 (zero when the
	// server predates placement epochs).
	Epoch int64
}

// Landed reports whether the batch is in the server's hands: accepted by this
// call or already admitted by an earlier one.
func (o SubmitOutcome) Landed() bool { return o.Accepted || o.Duplicate }

// Submit posts one batch. Admission outcomes (429, 503, 409, 421) are
// reported in the SubmitOutcome, not as errors; an error means the request
// itself failed (transport after retries, 400, unexpected status). The wire
// format follows the client's WireMode.
//
// Unless the caller pins SubmitRequest.Epoch, the client asserts its learned
// placement epoch and transparently adopts the server's retry hint on an
// epoch_skew 409 — a reshard costs unpinned callers one extra round trip,
// never an error. Pinned epochs surface the skew as SubmitOutcome.EpochSkew.
func (c *Client) Submit(req *SubmitRequest) (SubmitOutcome, error) {
	pinned := req.Epoch != 0
	for attempt := 0; ; attempt++ {
		if !pinned {
			req.Epoch = c.epoch.Load()
		}
		out, err := c.submitOnce(req)
		if !pinned {
			req.Epoch = 0 // the caller's request is not ours to mutate
		}
		if err != nil || !out.EpochSkew || pinned || attempt >= 3 {
			return out, err
		}
		// Adopt the hint and resend. A zero hint (pre-epoch server, or a
		// proxy that stripped it) clears the assertion entirely.
		c.epoch.Store(out.Epoch)
	}
}

// submitOnce posts one batch with whatever epoch assertion req carries.
func (c *Client) submitOnce(req *SubmitRequest) (SubmitOutcome, error) {
	if c.wire == WireJSON {
		return c.submitJSON(req)
	}
	return c.submitBinary(req)
}

// submitBinary posts one batch as an rrserve/v2 frame.
func (c *Client) submitBinary(req *SubmitRequest) (SubmitOutcome, error) {
	fb := acquireFrameBuf()
	defer releaseFrameBuf(fb)
	body, err := AppendSubmitBinary(fb.b[:0], req)
	if err != nil {
		return SubmitOutcome{}, err
	}
	fb.b = body
	status, data, header, err := c.do(http.MethodPost, "/v1/jobs", body, ContentTypeBinary, ContentTypeBinary)
	if err != nil {
		return SubmitOutcome{}, fmt.Errorf("serve: submit: %w", err)
	}
	return c.parseSubmitResponse(status, data, header)
}

// submitJSON posts one batch as rrserve/v1 JSON.
func (c *Client) submitJSON(req *SubmitRequest) (SubmitOutcome, error) {
	body, err := EncodeSubmit(req)
	if err != nil {
		return SubmitOutcome{}, err
	}
	status, data, header, err := c.do(http.MethodPost, "/v1/jobs", body, "", "")
	if err != nil {
		return SubmitOutcome{}, fmt.Errorf("serve: submit: %w", err)
	}
	return c.parseSubmitResponse(status, data, header)
}

// parseSubmitResponse maps one completed submit exchange to an outcome. A
// 200 body is decoded by its Content-Type: frames in binary mode, JSON in
// JSON mode.
func (c *Client) parseSubmitResponse(status int, data []byte, header http.Header) (SubmitOutcome, error) {
	switch status {
	case http.StatusOK:
		var sr SubmitResponse
		if IsBinaryContent(header.Get("Content-Type")) {
			srp, err := DecodeSubmitResponseBinary(data)
			if err != nil {
				return SubmitOutcome{}, err
			}
			sr = *srp
		} else if err := decodeBody(bytes.NewReader(data), &sr); err != nil {
			return SubmitOutcome{}, err
		}
		if sr.Epoch != 0 {
			c.epoch.Store(sr.Epoch)
		}
		return SubmitOutcome{Accepted: true, Round: sr.Round, Backlog: sr.Backlog, Epoch: sr.Epoch}, nil
	case http.StatusConflict:
		// Two different 409s share the status: a duplicate batch (the
		// idempotent-resend answer) and a typed placement-epoch skew.
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err == nil && er.Code == ErrCodeEpochSkew {
			return SubmitOutcome{EpochSkew: true, Epoch: er.Epoch}, nil
		}
		return SubmitOutcome{Duplicate: true}, nil
	case http.StatusTooManyRequests:
		retry := time.Second
		if v := header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
				retry = time.Duration(secs) * time.Second
			}
		}
		return SubmitOutcome{Rejected: true, RetryAfter: retry}, nil
	case http.StatusServiceUnavailable:
		return SubmitOutcome{Refused: true}, nil
	case http.StatusMisdirectedRequest:
		return SubmitOutcome{Misdirected: true}, nil
	default:
		return SubmitOutcome{}, bodyError("submit", status, data)
	}
}

// Tick advances every shard of a classic service n rounds (virtual-time mode)
// and returns the new next round; a hosted service refuses it with 503.
func (c *Client) Tick(n int) (int64, error) {
	if c.wire == WireBinary {
		return c.postRound("tick", "/v1/tick", EncodeTickBinary(n), ContentTypeBinary)
	}
	return c.postRound("tick", "/v1/tick?rounds="+strconv.Itoa(n), []byte{}, "")
}

// TickShard sends one hosted shard's round call (see Service.TickShard) and
// returns the shard's round, req.Target on success. A 421 answers
// ErrMisdirected.
func (c *Client) TickShard(req *RoundRequest) (int64, error) {
	if c.wire == WireJSON {
		body, err := EncodeRound(req)
		if err != nil {
			return 0, err
		}
		return c.postRound("round", "/v1/round", body, "")
	}
	fb := acquireFrameBuf()
	defer releaseFrameBuf(fb)
	var err error
	if fb.b, err = AppendRoundBinary(fb.b[:0], req); err != nil {
		return 0, err
	}
	return c.postRound("round", "/v1/round", fb.b, ContentTypeBinary)
}

// ErrMisdirected marks a per-shard request sent to a worker that does not
// hold the shard's lease; callers refresh placement and retry elsewhere.
var ErrMisdirected = fmt.Errorf("serve: shard is not hosted on this worker")

// postRound posts a tick or round call in the codec contentType names (JSON
// when empty) and returns the round its response reports.
func (c *Client) postRound(op, path string, body []byte, contentType string) (int64, error) {
	status, data, header, err := c.do(http.MethodPost, path, body, contentType, contentType)
	if err != nil {
		return 0, fmt.Errorf("serve: %s: %w", op, err)
	}
	if status == http.StatusMisdirectedRequest {
		return 0, ErrMisdirected
	}
	if status != http.StatusOK {
		return 0, bodyError(op, status, data)
	}
	if IsBinaryContent(header.Get("Content-Type")) {
		return DecodeTickResponseBinary(data)
	}
	var tr TickResponse
	if err := decodeBody(bytes.NewReader(data), &tr); err != nil {
		return 0, err
	}
	return tr.Round, nil
}

// Reshard resizes the pool to shards under live traffic and adopts the new
// placement epoch for subsequent submits.
func (c *Client) Reshard(shards int) (*ReshardResponse, error) {
	body, err := EncodeReshard(&ReshardRequest{Schema: ReshardSchema, Shards: shards})
	if err != nil {
		return nil, err
	}
	status, data, _, err := c.do(http.MethodPost, "/v1/reshard", body, "", "")
	if err != nil {
		return nil, fmt.Errorf("serve: reshard: %w", err)
	}
	if status != http.StatusOK {
		return nil, bodyError("reshard", status, data)
	}
	var rr ReshardResponse
	if err := decodeBody(bytes.NewReader(data), &rr); err != nil {
		return nil, err
	}
	if rr.Schema != ReshardSchema {
		return nil, fmt.Errorf("serve: reshard schema %q, want %q", rr.Schema, ReshardSchema)
	}
	c.epoch.Store(rr.Epoch)
	return &rr, nil
}

// PlacementEpoch returns the placement epoch the client last learned from
// the server (zero before any response carried one).
func (c *Client) PlacementEpoch() int64 { return c.epoch.Load() }

// Stats fetches /v1/stats.
func (c *Client) Stats() (*StatsResponse, error) {
	var sr StatsResponse
	if err := c.getJSON("/v1/stats", &sr); err != nil {
		return nil, err
	}
	if sr.Schema != StatsSchema {
		return nil, fmt.Errorf("serve: stats schema %q, want %q", sr.Schema, StatsSchema)
	}
	return &sr, nil
}

// StatsRaw fetches /v1/stats as raw bytes (for artifact files).
func (c *Client) StatsRaw() ([]byte, error) {
	return c.getRaw("/v1/stats")
}

// Metrics fetches and decodes the merged /metrics snapshot.
func (c *Client) Metrics() (*obs.Snapshot, error) {
	data, err := c.getRaw("/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ReadSnapshot(bytes.NewReader(data))
}

// Decisions fetches a tenant's recorded decision stream.
func (c *Client) Decisions(tenant string) (*DecisionsResponse, error) {
	var dr DecisionsResponse
	if err := c.getJSON("/v1/decisions?tenant="+url.QueryEscape(tenant), &dr); err != nil {
		return nil, err
	}
	return &dr, nil
}

// DecisionsRaw fetches the decision stream as raw bytes, for byte-identity
// comparison against MarshalResponse of a reference run.
func (c *Client) DecisionsRaw(tenant string) ([]byte, error) {
	return c.getRaw("/v1/decisions?tenant=" + url.QueryEscape(tenant))
}

// Ready reports whether /readyz returns 200. Single-shot: readiness polls
// supply their own cadence.
func (c *Client) Ready() bool {
	resp, err := c.hc.Get(c.base + "/readyz")
	if err != nil {
		return false
	}
	defer drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// Healthy reports whether /healthz returns 200. Single-shot, like Ready.
func (c *Client) Healthy() bool {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return false
	}
	defer drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

func (c *Client) getRaw(path string) ([]byte, error) {
	status, data, _, err := c.do(http.MethodGet, path, nil, "", "")
	if err != nil {
		return nil, fmt.Errorf("serve: get %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, bodyError(path, status, data)
	}
	return data, nil
}

func (c *Client) getJSON(path string, v any) error {
	data, err := c.getRaw(path)
	if err != nil {
		return err
	}
	return decodeBody(bytes.NewReader(data), v)
}

func decodeBody(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("serve: reading response: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("serve: decoding response: %w", err)
	}
	return nil
}

// bodyError turns a non-2xx response into an error carrying the server's
// ErrorResponse body when one is present.
func bodyError(op string, status int, data []byte) error {
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err == nil && er.Error != "" {
		return fmt.Errorf("serve: %s: status %d (%s)", op, status, er.Error)
	}
	return fmt.Errorf("serve: %s: status %d", op, status)
}

// drainClose discards any unread body and closes it, which lets the
// transport reuse the connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 4096)) // best-effort connection reuse
	_ = body.Close()                                       // read side already consumed; close error carries no signal
}
