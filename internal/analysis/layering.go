package analysis

import (
	"strconv"
	"strings"
)

// Layering returns the analyzer that pins the package DAG. rules maps each
// package path to the module-internal import paths it may use; an import
// outside its set, or a package missing from the table entirely, is a
// diagnostic. Forcing every package into the table means adding a dependency
// edge (or a new package) is always an explicit, reviewable rules change —
// the table is the architecture document.
//
// Only non-test files are checked: tests may reach across layers freely.
func Layering(rules map[string][]string) *Analyzer {
	allowed := map[string]map[string]bool{}
	for pkg, deps := range rules {
		set := map[string]bool{}
		for _, d := range deps {
			set[d] = true
		}
		allowed[pkg] = set
	}
	a := &Analyzer{
		Name: "layering",
		Doc:  "enforces the declared package DAG (model/queue are leaves; sim never imports experiments; each cmd declares its internals)",
	}
	a.Run = func(pass *Pass) {
		set, declared := allowed[pass.Pkg.Path]
		if !declared {
			pass.Reportf(pass.Pkg.Files[0].Package, "package %s is not declared in the layering table; add it (and its permitted imports) to analysis.DefaultLayeringRules", pass.Pkg.Path)
			return
		}
		modPrefix := modulePrefix(pass.Pkg.Path)
		for _, f := range pass.Pkg.Files {
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if !strings.HasPrefix(p, modPrefix+"/") && p != modPrefix {
					continue
				}
				if !set[p] {
					pass.Reportf(spec.Pos(), "layering violation: %s may not import %s (permitted: %s)", pass.Pkg.Path, p, strings.Join(rules[pass.Pkg.Path], ", "))
				}
			}
		}
	}
	return a
}

// modulePrefix recovers the module path from a package path: everything up
// to the first path element, which is enough for single-segment module names
// like "rrsched"; multi-segment module paths are handled by the caller
// passing full package paths in the rules.
func modulePrefix(pkgPath string) string {
	if i := strings.IndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[:i]
	}
	return pkgPath
}

// DefaultLayeringRules is this repository's package DAG: for every package,
// the module-internal imports it may use (in non-test files). The key
// architectural constraints, in one place:
//
//   - internal/model and internal/queue are leaves: they import no sibling
//     internal packages, so every layer can build on them without cycles;
//   - internal/sim sees only model and queue — in particular it never
//     imports internal/experiments, keeping the engine reusable and the
//     evaluation harness strictly above it;
//   - internal/analysis (this linter) imports nothing from the module: it
//     must be able to analyze every package, including a broken one;
//   - each cmd/* and examples/* declares exactly the internals it uses
//     beyond the public rrsched API.
func DefaultLayeringRules() map[string][]string {
	const m = "rrsched/internal/"
	return map[string][]string{
		// Public API surface.
		"rrsched": {m + "core", m + "model", m + "offline", m + "reduce", m + "sim", m + "stream"},

		// Leaves.
		m + "model":    {},
		m + "queue":    {},
		m + "paging":   {},
		m + "stats":    {},
		m + "sweep":    {},
		m + "analysis": {},
		m + "atomicio": {},
		m + "varint":   {},

		// The incremental checkpoint store: content-addressed chunks, delta
		// chains, manifests, and streaming decision logs. Pure persistence —
		// it knows nothing about scheduling, so it sits just above atomicio.
		m + "ckptstore": {m + "atomicio"},

		// Observability: metrics, tracing, event sinks. Near-leaf by design.
		m + "obs": {m + "model"},

		// Core layers.
		m + "workload":   {m + "model"},
		m + "sim":        {m + "model", m + "obs", m + "queue"},
		m + "core":       {m + "model", m + "obs", m + "sim"},
		m + "reduce":     {m + "model", m + "obs", m + "sim"},
		m + "baseline":   {m + "model", m + "sim"},
		m + "introspect": {m + "model"},
		m + "edf":        {m + "core", m + "model", m + "queue", m + "sim"},
		m + "offline":    {m + "edf", m + "model", m + "sim"},
		m + "stream":     {m + "core", m + "model", m + "queue", m + "reduce", m + "varint"},
		m + "chaos":      {m + "model", m + "obs", m + "sim", m + "stream", m + "workload"},
		m + "adversary":  {m + "model", m + "offline", m + "sim", m + "stats"},

		// The network service wraps stream schedulers behind an HTTP ingest
		// layer; it builds only on model, obs, stream and the state codecs, so
		// serving never grows a dependency on the evaluation stack.
		m + "serve": {m + "atomicio", m + "ckptstore", m + "model", m + "obs", m + "stream", m + "varint"},

		// The dispatcher/worker tier is the fault-tolerant control plane over
		// hosted serve workers: leases, heartbeats, checkpoint failover. It
		// builds only on obs and serve — scheduling knowledge stays below it.
		m + "dispatch": {m + "atomicio", m + "ckptstore", m + "obs", m + "serve"},

		// The benchmark harness drives the engine, policies, queues, the
		// streaming scheduler, the sweep substrate, the checkpoint store,
		// and the serve wire codecs; like experiments it sits above the core
		// layers and nothing imports it but its cmd.
		m + "perf": {
			m + "ckptstore", m + "core", m + "model", m + "obs", m + "queue",
			m + "serve", m + "sim", m + "stream", m + "sweep", m + "workload",
		},

		// The evaluation harness sits on top of everything.
		m + "experiments": {
			m + "adversary", m + "baseline", m + "chaos", m + "core", m + "edf",
			m + "model", m + "offline", m + "paging", m + "reduce", m + "sim",
			m + "stats", m + "sweep", m + "workload",
		},

		// Commands: public API plus declared internals.
		"rrsched/cmd/rrbench":    {m + "perf"},
		"rrsched/cmd/rrexp":      {m + "experiments", m + "obs"},
		"rrsched/cmd/rrcover":    {},
		"rrsched/cmd/rrdispatch": {m + "dispatch", m + "serve"},
		"rrsched/cmd/rrlint":     {m + "analysis"},
		"rrsched/cmd/rrload":     {m + "dispatch", m + "model", m + "obs", m + "serve", m + "workload"},
		"rrsched/cmd/rrworker":   {m + "dispatch"},
		"rrsched/cmd/rropt":      {m + "core", m + "model", m + "offline", m + "reduce", m + "workload"},
		"rrsched/cmd/rrreplay":   {m + "introspect", m + "model", m + "workload"},
		"rrsched/cmd/rrserve":    {m + "serve"},
		"rrsched/cmd/rrsim":      {m + "baseline", m + "core", m + "model", m + "obs", m + "offline", m + "reduce", m + "sim", m + "workload"},
		"rrsched/cmd/rrtrace":    {m + "model", m + "workload"},

		// Examples: public API plus declared internals.
		"rrsched/examples/adaptive":   {m + "core", m + "introspect", m + "sim", m + "workload"},
		"rrsched/examples/background": {m + "baseline", m + "core", m + "model", m + "reduce", m + "sim", m + "workload"},
		"rrsched/examples/datacenter": {"rrsched", m + "baseline", m + "obs", m + "offline", m + "sim", m + "workload"},
		"rrsched/examples/paging":     {m + "paging"},
		"rrsched/examples/quickstart": {"rrsched"},
		"rrsched/examples/router":     {"rrsched", m + "baseline", m + "model", m + "offline", m + "sim", m + "workload"},
		"rrsched/examples/stream":     {"rrsched"},
	}
}
