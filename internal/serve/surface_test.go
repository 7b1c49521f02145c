package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRingMatchesServicePlacement pins the exported Ring against the
// service's own routing: same shard for the same tenant, and a shard-count
// validation error for a degenerate ring.
func TestRingMatchesServicePlacement(t *testing.T) {
	svc, _, err := New(Config{Shards: 4, Resources: 8, Delta: 4, Watermark: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	ring, err := NewRing(4)
	if err != nil {
		t.Fatalf("NewRing: %v", err)
	}
	for _, tn := range []string{"alpha", "beta", "gamma", "tenant-0042"} {
		if got, want := ring.ShardOf(tn), svc.ShardFor(tn); got != want {
			t.Errorf("ShardOf(%q) = %d, service routes to %d", tn, got, want)
		}
	}
	if _, err := NewRing(0); err == nil {
		t.Error("NewRing(0) accepted")
	}
}

// TestWireModeFlagRoundTrip pins the -wire flag surface: every mode parses
// back from its String form, the empty value and the zero mode are binary,
// and junk — including the retired "auto" — is rejected.
func TestWireModeFlagRoundTrip(t *testing.T) {
	for _, m := range []WireMode{WireJSON, WireBinary} {
		got, err := ParseWireMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseWireMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	var zero WireMode
	if got, err := ParseWireMode(""); err != nil || got != WireBinary || zero != WireBinary {
		t.Errorf("ParseWireMode(\"\") = %v, %v (zero mode %v); want binary", got, err, zero)
	}
	for _, junk := range []string{"carrier-pigeon", "auto"} {
		if _, err := ParseWireMode(junk); err == nil {
			t.Errorf("ParseWireMode accepted %q", junk)
		}
	}
}

// TestStatsRawCarriesSchema pins the raw stats fetch used for artifact
// files: the bytes are the schema-versioned JSON document, verbatim.
func TestStatsRawCarriesSchema(t *testing.T) {
	svc, _, err := New(Config{Shards: 2, Resources: 8, Delta: 4, Watermark: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	raw, err := NewClient(srv.URL).StatsRaw()
	if err != nil {
		t.Fatalf("StatsRaw: %v", err)
	}
	if !strings.Contains(string(raw), StatsSchema) {
		t.Fatalf("raw stats lack the schema marker:\n%.200s", raw)
	}
	var sr StatsResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("raw stats do not decode: %v", err)
	}
	if sr.Schema != StatsSchema || sr.Shards != 2 {
		t.Fatalf("decoded stats: schema=%q shards=%d", sr.Schema, sr.Shards)
	}
}

// TestDrainingFlag pins the Draining accessor across BeginDrain.
func TestDrainingFlag(t *testing.T) {
	svc, _, err := New(Config{Shards: 1, Resources: 8, Delta: 4, Watermark: 1 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer svc.Close()
	if svc.Draining() {
		t.Fatal("fresh service reports draining")
	}
	svc.BeginDrain()
	if !svc.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
}

// TestHardenedServerBoundsTimeouts pins the slowloris defence: every daemon
// serves through HardenedServer, so its deadlines must all be set.
func TestHardenedServerBoundsTimeouts(t *testing.T) {
	hs := HardenedServer(nil)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("HardenedServer leaves a timeout unbounded: %+v", hs)
	}
}
