package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"rrsched/internal/serve"
)

// Client is a thin typed client for the dispatcher HTTP API, used by worker
// daemons, the placement-following driver, and the CI smoke job. Control
// traffic is single-shot by design: a worker's heartbeat loop is its own
// retry schedule, and stacking client retries under it would blur the miss
// budget the whole failure model is calibrated against.
//
// Checkpoint pushes travel as binary frames; registration, heartbeats, and
// the read endpoints are JSON.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the dispatcher at base (e.g.
// "http://127.0.0.1:9090").
func NewClient(base string) *Client {
	return &Client{
		base: base,
		hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
			},
		},
	}
}

// Register announces a worker and returns the service config and heartbeat
// contract the dispatcher imposes.
func (c *Client) Register(worker, addr string) (*RegisterResponse, error) {
	body, err := EncodeRegister(&RegisterRequest{Schema: WireSchema, Worker: worker, Addr: addr})
	if err != nil {
		return nil, err
	}
	var resp RegisterResponse
	if err := c.post("/v1/register", body, &resp); err != nil {
		return nil, err
	}
	if resp.Schema != WireSchema {
		return nil, fmt.Errorf("dispatch: register response schema %q, want %q", resp.Schema, WireSchema)
	}
	return &resp, nil
}

// Heartbeat renews the worker's liveness and exchanges lease state. A 404
// surfaces as errUnknownWorker: the dispatcher does not know this worker
// (typically a dispatcher restart) and it must re-register.
//
// timeout, when positive, caps this one request below the client's default:
// the heartbeat loop must observe failures on the heartbeat cadence, not the
// 30s transport deadline, or a packet-blackhole partition would let a fenced
// dispatcher-side lease outlive the worker's own fence by many intervals.
func (c *Client) Heartbeat(req *HeartbeatRequest, timeout time.Duration) (*HeartbeatResponse, error) {
	body, err := EncodeHeartbeat(req)
	if err != nil {
		return nil, err
	}
	status, data, err := c.doTimeout(http.MethodPost, "/v1/heartbeat", body, timeout)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		return nil, errUnknownWorker
	}
	if status != http.StatusOK {
		return nil, bodyError("heartbeat", status, data)
	}
	var resp HeartbeatResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("dispatch: decoding heartbeat response: %w", err)
	}
	return &resp, nil
}

// ErrStale marks a checkpoint push fenced by a newer lease epoch: the pusher
// no longer owns the shard and must discard, not retry.
var ErrStale = fmt.Errorf("dispatch: checkpoint fenced by a newer lease epoch")

// PushCheckpoint uploads one shard checkpoint as a binary frame. ErrStale
// (from a 409) means the lease moved on and the push was rightly discarded.
func (c *Client) PushCheckpoint(req *CheckpointPush) error {
	body, err := EncodeCheckpointPush(req)
	if err != nil {
		return err
	}
	status, data, err := c.doCT(http.MethodPost, "/v1/checkpoint", body, serve.ContentTypeBinary)
	if err != nil {
		return err
	}
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return ErrStale
	default:
		return bodyError("checkpoint", status, data)
	}
}

// Placement fetches the shard→worker placement table.
func (c *Client) Placement() (*PlacementResponse, error) {
	var resp PlacementResponse
	if err := c.get("/v1/placement", &resp); err != nil {
		return nil, err
	}
	if resp.Schema != WireSchema {
		return nil, fmt.Errorf("dispatch: placement schema %q, want %q", resp.Schema, WireSchema)
	}
	return &resp, nil
}

// Reshard asks the dispatcher to resize the fleet to shards. The request and
// response reuse the serve layer's reshard wire format; a 409 (mid-round,
// incomplete checkpoint set, same count) surfaces as an error the caller can
// retry after the next completed round.
func (c *Client) Reshard(shards int) (*serve.ReshardResponse, error) {
	body, err := serve.EncodeReshard(&serve.ReshardRequest{Schema: serve.ReshardSchema, Shards: shards})
	if err != nil {
		return nil, err
	}
	var resp serve.ReshardResponse
	if err := c.post("/v1/reshard", body, &resp); err != nil {
		return nil, err
	}
	if resp.Schema != serve.ReshardSchema {
		return nil, fmt.Errorf("dispatch: reshard response schema %q, want %q", resp.Schema, serve.ReshardSchema)
	}
	return &resp, nil
}

// Stats fetches the dispatcher stats.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.get("/v1/stats", &resp); err != nil {
		return nil, err
	}
	if resp.Schema != StatsSchema {
		return nil, fmt.Errorf("dispatch: stats schema %q, want %q", resp.Schema, StatsSchema)
	}
	return &resp, nil
}

// MetricsRaw fetches the dispatcher metric snapshot as raw bytes.
func (c *Client) MetricsRaw() ([]byte, error) {
	status, data, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, bodyError("metrics", status, data)
	}
	return data, nil
}

func (c *Client) post(path string, body []byte, v any) error {
	status, data, err := c.do(http.MethodPost, path, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return bodyError(path, status, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("dispatch: decoding %s response: %w", path, err)
	}
	return nil
}

func (c *Client) get(path string, v any) error {
	status, data, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return bodyError(path, status, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("dispatch: decoding %s response: %w", path, err)
	}
	return nil
}

func (c *Client) do(method, path string, body []byte) (int, []byte, error) {
	return c.request(method, path, body, "", 0)
}

// doCT is do with an explicit request Content-Type.
func (c *Client) doCT(method, path string, body []byte, contentType string) (int, []byte, error) {
	return c.request(method, path, body, contentType, 0)
}

// doTimeout is do with an optional per-request deadline (0 falls back to the
// client's transport timeout).
func (c *Client) doTimeout(method, path string, body []byte, timeout time.Duration) (int, []byte, error) {
	return c.request(method, path, body, "", timeout)
}

func (c *Client) request(method, path string, body []byte, contentType string, timeout time.Duration) (int, []byte, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, reader)
	if err != nil {
		return 0, nil, fmt.Errorf("dispatch: building %s %s: %w", method, path, err)
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(req.Context(), timeout)
		defer cancel()
		req = req.WithContext(ctx)
	}
	if body != nil {
		if contentType == "" {
			contentType = "application/json"
		}
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("dispatch: %s %s: %w", method, path, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) // best-effort connection reuse
		_ = resp.Body.Close()                                       // read side already consumed; close error carries no signal
	}()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxCheckpointBody))
	if err != nil {
		return 0, nil, fmt.Errorf("dispatch: reading %s %s response: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// bodyError turns a non-2xx response into an error carrying the server's
// error body when one is present.
func bodyError(op string, status int, data []byte) error {
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &er); err == nil && er.Error != "" {
		return fmt.Errorf("dispatch: %s: status %d (%s)", op, status, er.Error)
	}
	return fmt.Errorf("dispatch: %s: status %d", op, status)
}
