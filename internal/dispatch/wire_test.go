package dispatch

import (
	"bytes"
	"strings"
	"testing"

	"rrsched/internal/serve"
)

func TestWireRoundTrips(t *testing.T) {
	reg := &RegisterRequest{Schema: WireSchema, Worker: "w1", Addr: "http://127.0.0.1:9000"}
	data, err := EncodeRegister(reg)
	if err != nil {
		t.Fatalf("EncodeRegister: %v", err)
	}
	reg2, err := DecodeRegister(data)
	if err != nil {
		t.Fatalf("DecodeRegister: %v", err)
	}
	if *reg2 != *reg {
		t.Fatalf("register round trip: %+v != %+v", reg2, reg)
	}

	hb := &HeartbeatRequest{Schema: WireSchema, Worker: "w1", Held: []LeaseInfo{
		{Shard: 0, Epoch: 3},
		{Shard: 2, Epoch: 1},
	}}
	data, err = EncodeHeartbeat(hb)
	if err != nil {
		t.Fatalf("EncodeHeartbeat: %v", err)
	}
	hb2, err := DecodeHeartbeat(data)
	if err != nil {
		t.Fatalf("DecodeHeartbeat: %v", err)
	}
	if hb2.Worker != hb.Worker || len(hb2.Held) != 2 || hb2.Held[1] != hb.Held[1] {
		t.Fatalf("heartbeat round trip: %+v != %+v", hb2, hb)
	}

	cp := &CheckpointPush{Worker: "w1", Shard: 1, Epoch: 2, Round: 9,
		Final: true, Data: []byte("rrcb bundle bytes")}
	data, err = EncodeCheckpointPush(cp)
	if err != nil {
		t.Fatalf("EncodeCheckpointPush: %v", err)
	}
	cp2, err := DecodeCheckpointPush(data)
	if err != nil {
		t.Fatalf("DecodeCheckpointPush: %v", err)
	}
	if cp2.Worker != cp.Worker || cp2.Shard != cp.Shard || cp2.Epoch != cp.Epoch ||
		cp2.Round != cp.Round || !cp2.Final || !bytes.Equal(cp2.Data, cp.Data) {
		t.Fatalf("checkpoint round trip: %+v != %+v", cp2, cp)
	}
}

func TestWireRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
		dec  func([]byte) error
		want string
	}{
		{"register bad schema", `{"schema":"nope","worker":"w","addr":"a"}`,
			func(b []byte) error { _, err := DecodeRegister(b); return err }, "schema"},
		{"register v1 schema", `{"schema":"rrdispatch/v1","worker":"w","addr":"a"}`,
			func(b []byte) error { _, err := DecodeRegister(b); return err }, "schema"},
		{"register empty worker", `{"schema":"rrdispatch/v2","worker":"","addr":"a"}`,
			func(b []byte) error { _, err := DecodeRegister(b); return err }, "empty worker"},
		{"register control-byte worker", "{\"schema\":\"rrdispatch/v2\",\"worker\":\"w\\u0001\",\"addr\":\"a\"}",
			func(b []byte) error { _, err := DecodeRegister(b); return err }, "control byte"},
		{"register no addr", `{"schema":"rrdispatch/v2","worker":"w","addr":""}`,
			func(b []byte) error { _, err := DecodeRegister(b); return err }, "no address"},
		{"heartbeat unsorted held", `{"schema":"rrdispatch/v2","worker":"w","held":[{"shard":2},{"shard":1}]}`,
			func(b []byte) error { _, err := DecodeHeartbeat(b); return err }, "strictly increasing"},
		{"heartbeat negative epoch", `{"schema":"rrdispatch/v2","worker":"w","held":[{"shard":0,"epoch":-1}]}`,
			func(b []byte) error { _, err := DecodeHeartbeat(b); return err }, "negative epoch"},
		{"heartbeat shard out of range", `{"schema":"rrdispatch/v2","worker":"w","held":[{"shard":5000}]}`,
			func(b []byte) error { _, err := DecodeHeartbeat(b); return err }, "out of range"},
		{"checkpoint negative round", string(checkpointFrame(t, "w", 0, 1, -1)),
			func(b []byte) error { _, err := DecodeCheckpointPush(b); return err }, "negative round"},
		{"checkpoint shard out of range", string(checkpointFrame(t, "w", MaxShards, 1, 0)),
			func(b []byte) error { _, err := DecodeCheckpointPush(b); return err }, "out of range"},
		{"checkpoint control-byte worker", string(checkpointFrame(t, "w\x01", 0, 1, 0)),
			func(b []byte) error { _, err := DecodeCheckpointPush(b); return err }, "control byte"},
		{"checkpoint JSON push", `{"schema":"rrdispatch/v1","worker":"w","shard":0,"round":0,"data":{}}`,
			func(b []byte) error { _, err := DecodeCheckpointPush(b); return err }, "decoding checkpoint frame"},
	}
	for _, tc := range cases {
		err := tc.dec([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// checkpointFrame encodes a checkpoint frame directly, bypassing the push
// encoder's validation, so decoder refusals can be tested on real frames.
func checkpointFrame(t *testing.T, worker string, shard int, epoch, round int64) []byte {
	t.Helper()
	frame, err := serve.EncodeCheckpointFrame(&serve.CheckpointFrame{Worker: worker, Shard: shard, Epoch: epoch, Round: round, Data: []byte("x")})
	if err != nil {
		t.Fatalf("EncodeCheckpointFrame: %v", err)
	}
	return frame
}

func TestServiceConfigValidation(t *testing.T) {
	good := ServiceConfig{Shards: 2, Resources: 8, Delta: 4, Watermark: 64}
	if err := good.validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []ServiceConfig{
		{Shards: 0, Resources: 8, Delta: 4, Watermark: 64},
		{Shards: MaxShards + 1, Resources: 8, Delta: 4, Watermark: 64},
		{Shards: 2, Resources: 6, Delta: 4, Watermark: 64},
		{Shards: 2, Resources: 8, Delta: 0, Watermark: 64},
		{Shards: 2, Resources: 8, Delta: 4, Watermark: 0},
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// FuzzDecodeDispatch pins that no dispatcher wire decoder — the JSON control
// messages and the binary checkpoint push frame — panics on arbitrary bytes,
// and that anything a decoder accepts re-encodes to bytes the decoder accepts
// again (round-trip closure).
func FuzzDecodeDispatch(f *testing.F) {
	f.Add([]byte(`{"schema":"rrdispatch/v2","worker":"w1","addr":"http://h:1"}`))
	f.Add([]byte(`{"schema":"rrdispatch/v2","worker":"w1","held":[{"shard":0,"epoch":1}]}`))
	for _, cp := range []*CheckpointPush{
		{Worker: "w1", Shard: 0, Epoch: 1, Round: 2, Data: []byte("rrcb\x01")},
		{Worker: "w2", Shard: 3, Epoch: 7, Round: 40, Final: true, Data: bytes.Repeat([]byte{0xff}, 64)},
	} {
		frame, err := EncodeCheckpointPush(cp)
		if err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	f.Add([]byte(`{broken`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRegister(data); err == nil {
			enc, err := EncodeRegister(req)
			if err != nil {
				t.Fatalf("accepted register does not re-encode: %v", err)
			}
			if _, err := DecodeRegister(enc); err != nil {
				t.Fatalf("re-encoded register rejected: %v", err)
			}
		}
		if req, err := DecodeHeartbeat(data); err == nil {
			enc, err := EncodeHeartbeat(req)
			if err != nil {
				t.Fatalf("accepted heartbeat does not re-encode: %v", err)
			}
			if _, err := DecodeHeartbeat(enc); err != nil {
				t.Fatalf("re-encoded heartbeat rejected: %v", err)
			}
		}
		if req, err := DecodeCheckpointPush(data); err == nil {
			enc, err := EncodeCheckpointPush(req)
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-encode: %v", err)
			}
			again, err := DecodeCheckpointPush(enc)
			if err != nil {
				t.Fatalf("re-encoded checkpoint rejected: %v", err)
			}
			if again.Worker != req.Worker || again.Shard != req.Shard || again.Epoch != req.Epoch ||
				again.Round != req.Round || again.Final != req.Final || !bytes.Equal(again.Data, req.Data) {
				t.Fatalf("checkpoint round trip changed the push: %+v != %+v", again, req)
			}
		}
	})
}
