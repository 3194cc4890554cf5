package lint

import (
	"go/ast"
)

// GoSpawnAnalyzer flags bare go statements everywhere outside
// internal/workpool. All concurrency rides the shared worker budget
// (workpool.Pool) so nested parallel layers cannot oversubscribe the
// machine; a bare goroutine bypasses that accounting. Sanctioned
// spawn sites — the pool's own fan-out plus the coordinator goroutines
// that immediately block on pool-bounded work — carry //lint:allow
// gospawn comments explaining why they are safe.
var GoSpawnAnalyzer = &Analyzer{
	Name: "gospawn",
	Doc: "forbid bare go statements outside internal/workpool; spawn through " +
		"the shared worker budget so nesting cannot oversubscribe",
	Run: runGoSpawn,
}

func runGoSpawn(pass *Pass) {
	if pathHasSuffix(pass.PkgPath, "internal/workpool") {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"bare go statement outside internal/workpool; acquire a slot from the shared workpool.Pool (or document why this spawn cannot oversubscribe)")
			}
			return true
		})
	}
}
