package core

import (
	"mcmap/internal/platform"
	"mcmap/internal/sched"
)

// AnalyzeBatch evaluates many candidate execution-interval vectors
// against ONE system in a single call: the vectors' analyses fan out
// over Config.Workers exactly like the scenario analyses inside
// Analyze, sharing Config.Pool budgets, and each worker runs its share
// through one backend session on the system.
//
// results[i] corresponds to execs[i] and is identical — bounds,
// verdict — to an independent analyzer.Analyze(sys, execs[i]) call. The
// batch entry point serves callers that sweep exec-bound hypotheses
// over a fixed mapping: portfolio re-validation and sensitivity scans.
func AnalyzeBatch(sys *platform.System, execs [][]sched.ExecBounds, cfg Config) ([]*sched.Result, error) {
	if len(execs) == 0 {
		return []*sched.Result{}, nil
	}
	analyzer := cfg.analyzer()
	jobs := make([]scenarioJob, len(execs))
	for i := range jobs {
		jobs[i] = scenarioJob{sc: Scenario{Trigger: platform.NodeID(-1)}, exec: execs[i]}
	}
	return analyzeScenarios(analyzer, sys, jobs, cfg)
}
