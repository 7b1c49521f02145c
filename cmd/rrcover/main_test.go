package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleProfile = `mode: set
rrsched/internal/sim/engine.go:10.2,12.3 3 1
rrsched/internal/sim/engine.go:14.2,20.3 5 0
rrsched/internal/sim/state.go:8.2,9.10 2 7
rrsched/internal/obs/registry.go:5.2,6.3 4 1
rrsched/cmd/rrsim/main.go:3.2,4.3 10 0
`

func TestParseProfile(t *testing.T) {
	cov, err := ParseProfile(strings.NewReader(sampleProfile))
	if err != nil {
		t.Fatal(err)
	}
	// sim: (3+2) hit of (3+5+2) = 50%; obs: 100%; cmd/rrsim: 0%.
	if got := cov["rrsched/internal/sim"]; got != 50 {
		t.Errorf("sim coverage = %v, want 50", got)
	}
	if got := cov["rrsched/internal/obs"]; got != 100 {
		t.Errorf("obs coverage = %v, want 100", got)
	}
	if got := cov["rrsched/cmd/rrsim"]; got != 0 {
		t.Errorf("rrsim coverage = %v, want 0", got)
	}
}

func TestParseProfileMergesRepeatedBlocks(t *testing.T) {
	// The same block seen uncovered then covered counts once, as covered.
	p := "mode: set\n" +
		"rrsched/internal/x/a.go:1.2,3.4 4 0\n" +
		"rrsched/internal/x/a.go:1.2,3.4 4 1\n" +
		"rrsched/internal/x/a.go:5.2,6.4 4 0\n"
	cov, err := ParseProfile(strings.NewReader(p))
	if err != nil {
		t.Fatal(err)
	}
	if got := cov["rrsched/internal/x"]; got != 50 {
		t.Errorf("coverage = %v, want 50 (merged block covered once)", got)
	}
}

func TestParseProfileRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"not a profile\n",
		"mode: set\nrrsched/a.go:garbage 1 2\n",
		"mode: set\nnocolon 1 2\n",
	} {
		if _, err := ParseProfile(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed profile %q", bad)
		}
	}
}

func TestGate(t *testing.T) {
	ff := &Floors{Schema: Schema, Floors: map[string]float64{
		"rrsched/internal/sim":  49.5,
		"rrsched/internal/obs":  99.0,
		"rrsched/internal/gone": 10.0,
	}}
	cov := map[string]float64{
		"rrsched/internal/sim": 50,
		"rrsched/internal/obs": 80, // regressed
		"rrsched/internal/new": 33, // unfloored
		"rrsched/cmd/rrsim":    0,  // not internal: never listed
	}
	failures, unfloored := Gate(ff, cov)
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want obs regression + gone absence", failures)
	}
	if !strings.Contains(failures[1], "obs") || !strings.Contains(failures[0], "gone") {
		t.Errorf("unexpected failure set: %v", failures)
	}
	if len(unfloored) != 1 || unfloored[0] != "rrsched/internal/new" {
		t.Errorf("unfloored = %v, want only internal/new", unfloored)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cover.out")
	floor := filepath.Join(dir, "floor.json")
	if err := os.WriteFile(prof, []byte(sampleProfile), 0o644); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	// -write then gate: freshly written floors must pass.
	if err := run([]string{"-profile", prof, "-floor", floor, "-write"}, &out); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := run([]string{"-profile", prof, "-floor", floor}, &out); err != nil {
		t.Fatalf("gate after write: %v", err)
	}
	if !strings.Contains(out.String(), "at or above") {
		t.Errorf("no success line: %q", out.String())
	}

	// A profile that loses the obs package must fail the gate.
	lost := strings.ReplaceAll(sampleProfile, "rrsched/internal/obs/registry.go:5.2,6.3 4 1\n", "")
	if err := os.WriteFile(prof, []byte(lost), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-profile", prof, "-floor", floor}, &out)
	if err == nil || !strings.Contains(err.Error(), "obs") {
		t.Fatalf("gate passed despite a vanished package: %v", err)
	}

	// A regressed package (0% coverage for sim) must fail too.
	regressed := strings.ReplaceAll(sampleProfile, "engine.go:10.2,12.3 3 1", "engine.go:10.2,12.3 3 0")
	regressed = strings.ReplaceAll(regressed, "state.go:8.2,9.10 2 7", "state.go:8.2,9.10 2 0")
	if err := os.WriteFile(prof, []byte(regressed), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-profile", prof, "-floor", floor}, &out)
	if err == nil || !strings.Contains(err.Error(), "sim") {
		t.Fatalf("gate passed despite regressed coverage: %v", err)
	}

	// -list prints every package.
	out.Reset()
	if err := run([]string{"-profile", prof, "-floor", floor, "-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rrsched/internal/sim") {
		t.Errorf("list output missing packages: %q", out.String())
	}
}

// TestWriteNeverLowersAFloor pins the -write ratchet: a floor rises to one
// point below a higher measurement, a 100% floor measured at 100 stays 100, a
// lower measurement keeps the committed floor, and a floored package the
// profile does not cover keeps its floor.
func TestWriteNeverLowersAFloor(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cover.out")
	floor := filepath.Join(dir, "floor.json")
	// sim 50%, obs 100%, queue 50%.
	p := sampleProfile +
		"rrsched/internal/queue/q.go:1.2,2.3 4 1\n" +
		"rrsched/internal/queue/q.go:3.2,4.3 4 0\n"
	if err := os.WriteFile(prof, []byte(p), 0o644); err != nil {
		t.Fatal(err)
	}
	committed := `{"schema": "` + Schema + `", "floors": {
		"rrsched/internal/sim": 40,
		"rrsched/internal/obs": 100,
		"rrsched/internal/queue": 80,
		"rrsched/internal/gone": 42}}`
	if err := os.WriteFile(floor, []byte(committed), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-profile", prof, "-floor", floor, "-write"}, &out); err != nil {
		t.Fatalf("write: %v", err)
	}
	ff, err := readFloors(floor)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"rrsched/internal/sim":   49,  // raised to the measurement minus the slack
		"rrsched/internal/obs":   100, // measured at 100: not lowered to 99
		"rrsched/internal/queue": 80,  // measured at 50: the committed floor stays
		"rrsched/internal/gone":  42,  // not in the profile: the committed floor stays
	}
	if len(ff.Floors) != len(want) {
		t.Errorf("floors = %v, want %v", ff.Floors, want)
	}
	for pkg, w := range want {
		if got, ok := ff.Floors[pkg]; !ok || got != w {
			t.Errorf("%s floor = %v (present %v), want %v", pkg, got, ok, w)
		}
	}
}
