//go:build !race

// The race detector changes what allocates, so exact allocation counts
// hold only in normal builds.

package core_test

import (
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
)

// TestAnalyzeAllocations pins Algorithm 1's allocations on DT-large's
// reference design (the load-balanced sample mapping) exactly: a
// steady-state Workspace.Analyze allocates nothing, and a one-shot
// core.Analyze — the form /analyze and every one-shot caller use —
// exactly 44 times, fewer than the 60 of the analysis before
// workspaces: the workspace replaces the Report and shares one array
// among the scenario results, and the dedup index keeps no slice per
// fingerprint.
func TestAnalyzeAllocations(t *testing.T) {
	b, err := benchmarks.ByName("dt-large")
	if err != nil {
		t.Fatal(err)
	}
	sys, dropped, err := b.CompiledSample(benchmarks.MapLoadBalance)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.NewConfig()
	var w core.Workspace
	steady := testing.AllocsPerRun(20, func() {
		if _, err := w.Analyze(sys, dropped, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if steady != 0 {
		t.Errorf("steady-state Workspace.Analyze allocates %.0f times, want 0", steady)
	}
	oneShot := testing.AllocsPerRun(20, func() {
		if _, err := core.Analyze(sys, dropped, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if oneShot != 44 {
		t.Errorf("one-shot core.Analyze allocates %.0f times, want 44", oneShot)
	}
}
