package lint

import (
	"strings"
)

// DeterministicPackages are the import-path suffixes whose outputs must
// be byte-identical across runs: the Algorithm 1 core, the
// schedulability backends and the DSE engine (Reports, CSV exports and
// optimization trajectories are all compared byte-for-byte by the
// property tests and the experiments harness).
var DeterministicPackages = []string{
	"internal/core",
	"internal/sched",
	"internal/dse",
}

func inDeterministicPackage(path string) bool {
	for _, suffix := range DeterministicPackages {
		if pathHasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// seededRandConstructors are the math/rand and math/rand/v2 functions
// that build an explicitly seeded generator or source; every other
// package-level function draws from the global, non-reproducible one.
var seededRandConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// TransDetAnalyzer keeps ambient nondeterminism — wall-clock reads
// (time.Now, time.Since, time.Until), draws from math/rand's global
// source, environment reads (os.Getenv, os.LookupEnv) — out of the
// deterministic packages (internal/core, internal/sched, internal/dse).
// It taints every module function that reaches such a root through any
// chain of calls, then reports inside the deterministic packages
//   - each root call itself, a witness chain of length 0, and
//   - each call into a tainted function of another package, with the
//     chain down to the root (clock.Indirect -> clock.Stamp -> time.Now),
//     closing the hole where a helper two packages away reads the wall
//     clock on core's behalf.
//
// Calls between deterministic packages are not reported: the root or
// frontier call inside them is. A root whose call site carries a
// //lint:allow transdet waiver (or one under the rule's older name,
// determinism) is neither reported nor seeds taint: a reviewed root —
// e.g. the transport liveness deadlines — is deliberately invisible to
// the deterministic callers above it. Taint propagates over
// method-set-approximated edges too (conservative), but only precisely
// resolved edges are reported, so an unknown receiver never produces a
// finding by name coincidence alone.
var TransDetAnalyzer = &Analyzer{
	Name: "transdet",
	Doc: "forbid time.Now, unseeded math/rand draws and os.Getenv in internal/core, " +
		"internal/sched and internal/dse, directly or through calls into functions " +
		"that transitively reach them; thread timestamps/seeds/config in from the caller",
	RunModule: runTransDet,
}

// nondetRoot classifies an import-path-qualified external callee
// ("time.Now") as an ambient-nondeterminism root, returning its display
// name and what it reads.
func nondetRoot(name string) (root, reads string, ok bool) {
	i := strings.LastIndex(name, ".")
	if i < 0 {
		return "", "", false
	}
	path, fn := name[:i], name[i+1:]
	switch path {
	case "time":
		if fn == "Now" || fn == "Since" || fn == "Until" {
			return "time." + fn, "reads the wall clock", true
		}
	case "math/rand", "math/rand/v2":
		if !seededRandConstructors[fn] {
			return "rand." + fn, "draws from the global, unseeded source", true
		}
	case "os":
		if fn == "Getenv" || fn == "LookupEnv" {
			return "os." + fn, "reads the environment", true
		}
	}
	return "", "", false
}

// displayFunc renders a FuncID compactly for messages:
// service.Server.handleStats rather than the full import path.
func displayFunc(id FuncID) string {
	p := shortPkg(id.Pkg)
	if id.Recv != "" {
		return p + "." + id.Recv + "." + id.Name
	}
	return p + "." + id.Name
}

// taint extends seeds — root function -> witness chain ending in the
// root's name — in place to every function that reaches a seeded one
// over module call edges (precise edges only when precise is set). A
// function's chain runs through its first tainted callee in
// breadth-first order from the roots.
func taint(mod *Module, seeds map[FuncID][]string, precise bool) {
	callers := map[FuncID][]FuncID{}
	var queue []FuncID
	for _, id := range mod.ids {
		if seeds[id] != nil {
			queue = append(queue, id)
		}
		seen := map[FuncID]bool{}
		for _, cs := range mod.Funcs[id].Calls {
			for _, c := range cs.Callees {
				if c.Fn != nil && !(precise && c.Approx) && !seen[c.Fn.ID] {
					seen[c.Fn.ID] = true
					callers[c.Fn.ID] = append(callers[c.Fn.ID], id)
				}
			}
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, caller := range callers[cur] {
			if seeds[caller] == nil {
				seeds[caller] = append([]string{displayFunc(cur)}, seeds[cur]...)
				queue = append(queue, caller)
			}
		}
	}
}

func runTransDet(mp *ModulePass) {
	mod := mp.Module
	tainted := map[FuncID][]string{}
	for _, id := range mod.ids {
		for _, cs := range mod.Funcs[id].Calls {
			for _, c := range cs.Callees {
				root, reads, ok := nondetRoot(c.External)
				if !ok || mod.allows.allows(mod.Fset.Position(cs.Pos), "transdet") {
					continue
				}
				if inDeterministicPackage(id.Pkg) {
					mp.Reportf(cs.Pos,
						"%s %s in a deterministic package; thread timestamps, seeds (a seeded *rand.Rand) and configuration in through Options/Config",
						root, reads)
				}
				if tainted[id] == nil {
					tainted[id] = []string{root}
				}
			}
		}
	}
	taint(mod, tainted, false)

	// Frontier: precisely resolved calls from a deterministic package
	// into a tainted function outside the deterministic packages.
	for _, id := range mod.ids {
		if !inDeterministicPackage(id.Pkg) {
			continue
		}
		for _, cs := range mod.Funcs[id].Calls {
			for _, c := range cs.Callees {
				if c.Fn == nil || c.Approx {
					continue
				}
				path, isTainted := tainted[c.Fn.ID]
				if !isTainted || inDeterministicPackage(c.Fn.ID.Pkg) {
					continue
				}
				chain := append([]string{displayFunc(c.Fn.ID)}, path...)
				mp.Reportf(cs.Pos,
					"call to %s, which transitively reaches %s (%s); thread the value through Options/Config, or //lint:allow the root with a reason",
					displayFunc(c.Fn.ID), path[len(path)-1], strings.Join(chain, " -> "))
				break
			}
		}
	}
}
