package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the expected-diagnostics files from the current
// analyzer output: go test ./internal/analysis -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata expected.txt files")

// fixtureAnalyzers configures the analyzers under test for each fixture
// module: repo-independent fixtures need fixture-local package paths and
// allowlists.
func fixtureAnalyzers(name string) []*Analyzer {
	switch name {
	case "determinism", "suppress":
		return []*Analyzer{Determinism()}
	case "nopanic":
		return []*Analyzer{NoPanic(map[string]string{
			"fix/nopanic.NewGuarded": "fixture: constructor invariant guard recorded in the allowlist",
		})}
	case "errcheck":
		return []*Analyzer{ErrCheck()}
	case "floatcmp":
		return []*Analyzer{FloatCmp("fix/floatcmp")}
	case "layering":
		return []*Analyzer{Layering(map[string][]string{
			"fix/layering/a": {},
			"fix/layering/b": {},
			// fix/layering/c deliberately missing: undeclared packages are
			// findings.
		})}
	case "lockcheck":
		return []*Analyzer{LockCheck()}
	case "goroleak":
		return []*Analyzer{GoroLeak()}
	case "atomicwrite":
		return []*Analyzer{AtomicWrite(map[string]bool{
			"fix/atomicwrite.writeFileAtomic":   true,
			"fix/atomicwrite.(slotWriter).open": true,
		})}
	case "fencedwrite":
		return []*Analyzer{FencedWrite("fix/fencedwrite", "lease", "epoch")}
	case "httpharden":
		return []*Analyzer{HTTPHarden(map[string]bool{
			"fix/httpharden.hardened": true,
		})}
	default:
		return nil
	}
}

// TestGolden runs each analyzer over its known-bad fixture module and
// compares the diagnostics against the fixture's expected.txt.
func TestGolden(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			analyzers := fixtureAnalyzers(name)
			if analyzers == nil {
				t.Fatalf("no analyzer configuration for fixture %q", name)
			}
			dir := filepath.Join("testdata", "src", name)
			mod, err := LoadModule(dir)
			if err != nil {
				t.Fatal(err)
			}
			diags := Run(mod.Pkgs, analyzers)
			var b strings.Builder
			for _, d := range diags {
				rel, err := filepath.Rel(mod.Root, d.File)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n", filepath.ToSlash(rel), d.Line, d.Col, d.Analyzer, d.Message)
			}
			got := b.String()
			expPath := filepath.Join(dir, "expected.txt")
			if *update {
				if err := os.WriteFile(expPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(expPath)
			if err != nil {
				t.Fatalf("missing expected-diagnostics file (run with -update to create): %v", err)
			}
			if got != string(wantBytes) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, wantBytes)
			}
		})
	}
}

// TestFixturesExitNonZero pins the acceptance criterion that every testdata
// fixture yields at least one finding with a position inside the fixture.
func TestFixturesExitNonZero(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		dir := filepath.Join("testdata", "src", name)
		mod, err := LoadModule(dir)
		if err != nil {
			t.Fatal(err)
		}
		diags := Run(mod.Pkgs, fixtureAnalyzers(name))
		if len(diags) == 0 {
			t.Errorf("fixture %s: want at least one diagnostic, got none", name)
			continue
		}
		for _, d := range diags {
			if d.Line <= 0 || d.File == "" {
				t.Errorf("fixture %s: diagnostic without a position: %+v", name, d)
			}
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(d.File, abs+string(filepath.Separator)) {
				t.Errorf("fixture %s: diagnostic outside the fixture: %s", name, d.File)
			}
		}
	}
}

// TestSelfHost is the self-hosting gate: the engine, run with the
// repository's own configuration, must be clean on the repository.
func TestSelfHost(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(mod.Pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("rrlint is not clean on its own repository: %d finding(s)", len(diags))
	}
	if len(mod.Pkgs) < 25 {
		t.Fatalf("loaded only %d packages; the module walker is missing directories", len(mod.Pkgs))
	}
}

// TestNoPanicAllowlistJustified keeps the allowlist honest: every entry
// names a module-internal function and carries a non-empty justification.
func TestNoPanicAllowlistJustified(t *testing.T) {
	for key, why := range DefaultNoPanicAllowlist() {
		if strings.TrimSpace(why) == "" {
			t.Errorf("allowlist entry %s has no justification", key)
		}
		if !strings.HasPrefix(key, "rrsched/internal/") {
			t.Errorf("allowlist entry %s does not name a module-internal function", key)
		}
	}
}

// TestNoPanicAllowlistLive cross-checks the allowlist against the tree:
// every allowlisted function must still contain a panic, so stale entries
// are flushed out when the panic is refactored away.
func TestNoPanicAllowlistLive(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run nopanic with an empty allowlist: the union of flagged function
	// keys is exactly the set of live panic sites.
	live := map[string]bool{}
	diags := Run(mod.Pkgs, []*Analyzer{NoPanic(nil)})
	for _, d := range diags {
		// Message format: "panic in library function <key>: ..."
		const pfx = "panic in library function "
		msg := strings.TrimPrefix(d.Message, pfx)
		if i := strings.Index(msg, ":"); i >= 0 && msg != d.Message {
			live[msg[:i]] = true
		}
	}
	for key := range DefaultNoPanicAllowlist() {
		if !live[key] {
			t.Errorf("allowlist entry %s matches no live panic site; delete the stale entry", key)
		}
	}
}

// TestByName covers the enable/disable selection logic.
func TestByName(t *testing.T) {
	sel, unknown := ByName(nil, nil)
	if len(unknown) != 0 || len(sel) != len(Analyzers()) {
		t.Fatalf("default selection: got %d analyzers, unknown=%v", len(sel), unknown)
	}
	sel, unknown = ByName([]string{"determinism", "nopanic"}, []string{"nopanic"})
	if len(unknown) != 0 || len(sel) != 1 || sel[0].Name != "determinism" {
		t.Fatalf("enable+disable: got %v unknown=%v", names(sel), unknown)
	}
	_, unknown = ByName([]string{"nope"}, []string{"alsono"})
	if len(unknown) != 2 {
		t.Fatalf("want 2 unknown names, got %v", unknown)
	}
}

func names(as []*Analyzer) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

// TestFindModuleRootErrors pins the failure mode outside any module.
func TestFindModuleRootErrors(t *testing.T) {
	if _, err := FindModuleRoot(t.TempDir()); err == nil {
		t.Fatal("want an error when no go.mod exists above the directory")
	}
}
