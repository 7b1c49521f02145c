package analysis

// Analyzers returns the default analyzer set with this repository's
// configuration: the five v1 invariant checkers (wired to the audited
// nopanic allowlist, the floatcmp package scope, and the layering DAG) and
// the five v2 concurrency/protocol checkers for the serve/dispatch tier.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		NoPanic(DefaultNoPanicAllowlist()),
		ErrCheck(),
		FloatCmp("rrsched/internal/experiments", "rrsched/internal/stats"),
		Layering(DefaultLayeringRules()),
		LockCheck(),
		GoroLeak(),
		AtomicWrite(DefaultAtomicWriteSanctioned()),
		FencedWrite("rrsched/internal/dispatch", "lease", "epoch"),
		HTTPHarden(DefaultHTTPHardenSanctioned()),
	}
}

// DefaultAtomicWriteSanctioned names the functions allowed to write state
// paths directly (os.WriteFile, os.Create, os.OpenFile for writing): the
// tmp+rename helper and the slot writer's open. Everything else must route
// state writes through them.
func DefaultAtomicWriteSanctioned() map[string]bool {
	return map[string]bool{
		"rrsched/internal/atomicio.WriteFile":          true,
		"rrsched/internal/atomicio.(Slots).ensureOpen": true,
	}
}

// DefaultHTTPHardenSanctioned names the constructors allowed to build raw
// http.Server literals: the hardened constructor that pins timeouts.
func DefaultHTTPHardenSanctioned() map[string]bool {
	return map[string]bool{
		"rrsched/internal/serve.HardenedServer": true,
	}
}

// ByName returns the analyzers selected by enable/disable name lists: with
// enable non-empty only those names run; disable then removes names. Unknown
// names are returned in the second result so drivers can reject typos.
func ByName(enable, disable []string) (selected []*Analyzer, unknown []string) {
	all := Analyzers()
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	picked := all
	if len(enable) > 0 {
		picked = nil
		for _, n := range enable {
			a, ok := byName[n]
			if !ok {
				unknown = append(unknown, n)
				continue
			}
			picked = append(picked, a)
		}
	}
	drop := map[string]bool{}
	for _, n := range disable {
		if _, ok := byName[n]; !ok {
			unknown = append(unknown, n)
			continue
		}
		drop[n] = true
	}
	for _, a := range picked {
		if !drop[a.Name] {
			selected = append(selected, a)
		}
	}
	return selected, unknown
}

// DefaultNoPanicAllowlist is the audit record of every surviving panic site
// in library code: each entry names a function that may panic and the
// one-line justification for why a panic (rather than an error return) is
// the right contract there. Adding a panic anywhere else fails the lint; so
// does adding an entry without a justification (the allowlist test enforces
// non-empty reasons). Must*-prefixed functions are panicking-by-contract
// wrappers and need no entry.
func DefaultNoPanicAllowlist() map[string]string {
	return map[string]string{
		// internal/model — constructor and arithmetic preconditions.
		"rrsched/internal/model.NewSchedule":     "constructor invariant guard: a schedule with no resources or speed < 1 is unrepresentable, and every caller passes literals or validated Env fields",
		"rrsched/internal/model.FloorPowerOfTwo": "documented arithmetic precondition (v > 0); callers validate delay bounds before calling",

		// internal/queue — container misuse guards, mirroring the stdlib
		// container/heap contract that popping an empty container is a
		// programming bug in the caller, not an input error.
		"rrsched/internal/queue.NewHeap":              "nil comparator is a programming bug caught at construction",
		"rrsched/internal/queue.NewIndexedHeap":       "nil comparator is a programming bug caught at construction",
		"rrsched/internal/queue.(Heap).Peek":          "peek of an empty container is caller misuse, as in container/heap",
		"rrsched/internal/queue.(Heap).Pop":           "pop of an empty container is caller misuse, as in container/heap",
		"rrsched/internal/queue.(IndexedHeap).Peek":   "peek of an empty container is caller misuse, as in container/heap",
		"rrsched/internal/queue.(Ring).Peek":          "peek of an empty container is caller misuse, as in container/heap",
		"rrsched/internal/queue.(Ring).Pop":           "pop of an empty container is caller misuse, as in container/heap",
		"rrsched/internal/queue.(BucketQueue).Push":   "pushing below the monotone front breaks the bucket invariant; callers push nondecreasing keys by construction",
		"rrsched/internal/queue.(BucketQueue).PopMin": "pop of an empty container is caller misuse, as in container/heap",

		// internal/core — the Section 3 policies' own invariants: a
		// violation means the policy's accounting broke, not that the user
		// passed bad input (user input is validated at the sim/API layer).
		"rrsched/internal/core.NewTracker":                  "constructor invariant guards on the paper's preconditions (batched arrivals, positive Δ)",
		"rrsched/internal/core.NewDynamicTracker":           "constructor invariant guard: non-positive reconfiguration cost",
		"rrsched/internal/core.(Tracker).Register":          "re-registering a color with a different delay bound breaks the ΔLRU timestamp algebra",
		"rrsched/internal/core.(Tracker).SetTimestampK":     "timestamp depth < 1 breaks the ΔLRU timestamp algebra",
		"rrsched/internal/core.(Tracker).EnableSuperEpochs": "non-positive threshold breaks the super-epoch construction",
		"rrsched/internal/core.(DeltaLRUEDF).Reset":         "LRU slot quota outside [0, Slots()] means the policy's own arithmetic broke",
		"rrsched/internal/core.edfUpdate":                   "cache overflow here means the EDF set construction itself is wrong",

		// internal/reduce — arithmetic preconditions of the reduction
		// lemmas (Lemmas 4-6); inputs are validated by the public wrappers.
		"rrsched/internal/reduce.BatchedDelay":        "non-positive delay bound violates the VarBatch lemma's precondition",
		"rrsched/internal/reduce.Block":               "non-positive block size violates the blocking lemma's precondition",
		"rrsched/internal/reduce.HalfBlock":           "odd or non-positive delay bound violates the half-block lemma's precondition",
		"rrsched/internal/reduce.(SubcolorMap).Outer": "lookup of an inner color the map itself minted; a miss is an internal bug",

		// internal/edf, internal/offline — offline reference bounds with
		// programmer-side preconditions; the cmd tools validate m >= 1
		// before calling.
		"rrsched/internal/edf.ParEDFDrops":       "m >= 1 is a precondition of the offline drop bound, checked by the cmd layer",
		"rrsched/internal/edf.ParEDFDropsBucket": "m >= 1 is a precondition of the offline drop bound, checked by the cmd layer",
		"rrsched/internal/offline.WindowGreedy":  "the greedy script is audited after construction; an illegal schedule is an internal bug, not bad input",

		// internal/experiments — init-time registry guard.
		"rrsched/internal/experiments.register": "duplicate-ID guard that fires during package init, before any user input exists",
	}
}
