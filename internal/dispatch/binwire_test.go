package dispatch

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"
)

// TestCheckpointPushBinaryRoundTrip pins the checkpoint push codec: a push
// round-trips through its binary frame to the same value, the decoded data
// does not alias the frame, and the encoder refuses what the decoder would.
func TestCheckpointPushBinaryRoundTrip(t *testing.T) {
	cp := &CheckpointPush{Worker: "w1", Shard: 1, Epoch: 2, Round: 9,
		Final: true, Data: testBundle(t, 1, 2, 9, "alpha")}
	frame, err := EncodeCheckpointPush(cp)
	if err != nil {
		t.Fatalf("EncodeCheckpointPush: %v", err)
	}
	got, err := DecodeCheckpointPush(frame)
	if err != nil {
		t.Fatalf("DecodeCheckpointPush: %v", err)
	}
	if got.Worker != cp.Worker || got.Shard != cp.Shard || got.Epoch != cp.Epoch ||
		got.Round != cp.Round || !got.Final || !bytes.Equal(got.Data, cp.Data) {
		t.Fatalf("binary round trip: %+v != %+v", got, cp)
	}
	// The decoded Data must not alias the frame (the dispatcher retains it).
	frame[len(frame)-2] ^= 0xff
	if !bytes.Equal(got.Data, cp.Data) {
		t.Fatal("decoded checkpoint data aliases the input frame")
	}

	bad := []*CheckpointPush{
		{Worker: "w", Shard: MaxShards, Epoch: 1, Round: 0, Data: []byte("x")},
		{Worker: "w", Shard: 0, Epoch: -1, Round: 0, Data: []byte("x")},
		{Worker: "w", Shard: 0, Epoch: 1, Round: -1, Data: []byte("x")},
		{Worker: "", Shard: 0, Epoch: 1, Round: 0, Data: []byte("x")},
		{Worker: "w", Shard: 0, Epoch: 1, Round: 0},
	}
	for _, cp := range bad {
		if _, err := EncodeCheckpointPush(cp); err == nil {
			t.Errorf("encoder accepted invalid push %+v", cp)
		}
	}
	if _, err := DecodeCheckpointPush([]byte("not a frame")); err == nil {
		t.Error("decoder accepted garbage")
	}
}

// registerAndLease registers a worker over HTTP and heartbeats until it holds
// every shard, returning the held leases.
func registerAndLease(t *testing.T, c *Client, worker string) []LeaseInfo {
	t.Helper()
	reg, err := c.Register(worker, "http://127.0.0.1:1")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	var held []LeaseInfo
	for i := 0; i < 4; i++ {
		resp, err := c.Heartbeat(&HeartbeatRequest{Schema: WireSchema, Worker: worker, Held: held}, 0)
		if err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		held = heldFromGrants(held, resp)
		if len(held) == reg.Config.Shards {
			return held
		}
	}
	t.Fatalf("worker %s never acquired all shards (held %d)", worker, len(held))
	return nil
}

// TestCheckpointPushBinaryHTTP pushes a checkpoint bundle through the real
// HTTP stack: the push travels as a binary frame and lands, a stale-epoch
// push is fenced with 409, and the landed bundle comes back in the next
// grant of the shard.
func TestCheckpointPushBinaryHTTP(t *testing.T) {
	d, _ := newTestDispatcher(t, testConfig())
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := NewClient(srv.URL)

	held := registerAndLease(t, c, "w1")
	lease := held[0]
	bundle := testBundle(t, lease.Shard, 4, 1, "alpha")
	if err := c.PushCheckpoint(&CheckpointPush{
		Worker: "w1", Shard: lease.Shard, Epoch: lease.Epoch, Round: 1, Data: bundle,
	}); err != nil {
		t.Fatalf("checkpoint push: %v", err)
	}
	if err := c.PushCheckpoint(&CheckpointPush{
		Worker: "w1", Shard: lease.Shard, Epoch: lease.Epoch - 1, Round: 2, Data: testBundle(t, lease.Shard, 4, 2),
	}); !errors.Is(err, ErrStale) {
		t.Fatalf("stale push err=%v, want ErrStale", err)
	}
	// The landed push is visible in the placement table's round.
	p, err := c.Placement()
	if err != nil {
		t.Fatalf("placement: %v", err)
	}
	if p.Shards[lease.Shard].Round != 1 {
		t.Fatalf("shard %d stored round %d, want 1", lease.Shard, p.Shards[lease.Shard].Round)
	}
	// A restarted worker gets every shard regranted; the pushed shard's grant
	// carries the stored bundle (already folded, so byte-identical) through
	// the JSON heartbeat.
	if _, err := c.Register("w1", "http://127.0.0.1:1"); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	resp, err := c.Heartbeat(&HeartbeatRequest{Schema: WireSchema, Worker: "w1"}, 0)
	if err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	found := false
	for _, g := range resp.Grants {
		if g.Shard == lease.Shard {
			found = true
			if g.Round != 1 || !bytes.Equal(g.Checkpoint, bundle) {
				t.Fatalf("regrant of shard %d: round %d, checkpoint %d bytes; want round 1 and the pushed bundle", g.Shard, g.Round, len(g.Checkpoint))
			}
		}
	}
	if !found {
		t.Fatalf("shard %d not regranted: %+v", lease.Shard, resp)
	}
}
