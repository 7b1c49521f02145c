// Package analysis is a from-scratch static-analysis engine, written only
// against the standard library's go/parser, go/ast, go/types, and go/token,
// that machine-checks the repository invariants the compiler cannot see:
//
//   - determinism: schedules must be reproducible for a given seed, so wall
//     clocks, the global math/rand source, and map-iteration-order-dependent
//     output are banned from library code (model.Audit replays runs
//     byte-exactly; checkpoint resume is verified decision-for-decision);
//   - nopanic: library panics were deliberately converted to error returns,
//     so new panic sites outside constructor invariant guards and Must*
//     wrappers are banned;
//   - errcheck: silently discarded error returns are banned;
//   - floatcmp: exact floating-point equality is banned in the statistics
//     and experiment layers;
//   - layering: the package DAG is pinned (model and queue are leaves, sim
//     never sees experiments, each cmd declares its internals).
//
// The concurrent tier (internal/serve, internal/dispatch) is guarded by a
// second, type-aware generation of analyzers:
//
//   - lockcheck: sync.Mutex/RWMutex discipline — every Lock is released on
//     every return path, and no lock is held across a blocking operation
//     (channel send/receive, select, time.Sleep, http.Client calls);
//   - goroleak: every `go` statement is tied to a shutdown path (WaitGroup,
//     done channel, channel loop, or an http.Server serve loop), and
//     goroutine launches inside unbounded loops are flagged;
//   - atomicwrite: os.WriteFile/os.Create, and os.OpenFile for writing, on
//     paths that flow from state/checkpoint vocabulary must go through the
//     sanctioned internal/atomicio helpers (tmp+rename, or checksummed slot
//     files);
//   - fencedwrite: in internal/dispatch, every lease mutation driven by an
//     epoch-bearing wire request must consult the epoch-fence comparison —
//     the rule that makes the 409 zombie-rejection protocol real;
//   - httpharden: http.Server values are built via serve.HardenedServer and
//     http.Client literals carry a non-zero Timeout.
//
// The engine loads every package of the module (see LoadModule), runs each
// enabled Analyzer over each package, and reports Diagnostics with file:line
// positions. `//lint:ignore <analyzer> <reason>` comments suppress a
// diagnostic on the same line or the line directly below the comment; an
// ignore with no reason is itself a diagnostic, and so is a stale ignore
// whose analyzer ran but found nothing to suppress. cmd/rrlint is the
// driver.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding at a source position. Suppressed
// findings survive in Result.Diags with Suppressed set and the directive's
// justification in SuppressReason, so machine consumers see the full audit
// trail, not just the gate.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`

	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppress_reason,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named analysis pass. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Result is the full outcome of an Analyze run.
type Result struct {
	// Diags holds every diagnostic in (file, line, column, analyzer) order:
	// surviving findings, suppressed findings (Suppressed set, with the
	// directive's reason), and the "lint" pseudo-diagnostics for malformed
	// or stale ignore directives.
	Diags []Diagnostic
}

// Findings returns the diagnostics that gate the build: everything not
// covered by an ignore directive, including the "lint" pseudo-diagnostics.
func (r *Result) Findings() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Analyze applies each analyzer to each package and returns every diagnostic
// with suppression metadata resolved: findings covered by a
// `//lint:ignore <analyzer> <reason>` directive are marked Suppressed and
// carry the directive's reason. Malformed directives, and stale directives
// whose analyzer ran but suppressed nothing, are reported under the
// pseudo-analyzer "lint" (stale directives for analyzers that did not run
// are left alone — a subset run proves nothing about them).
func Analyze(pkgs []*Package, analyzers []*Analyzer) *Result {
	var diags []Diagnostic
	sup := newSuppressions()
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
		sup.collect(pkg)
	}
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if ig := sup.match(d); ig != nil {
			d.Suppressed = true
			d.SuppressReason = ig.reason
		}
		out = append(out, d)
	}
	out = append(out, sup.malformed...)
	out = append(out, sup.unused(ran)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return &Result{Diags: out}
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics in (file, line, column, analyzer) order. Suppressed
// diagnostics are dropped; malformed or stale suppression comments are
// reported under the pseudo-analyzer "lint".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return Analyze(pkgs, analyzers).Findings()
}
