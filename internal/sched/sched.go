// Package sched provides the schedulability backend required by the
// paper's Algorithm 1: for a compiled system and a per-task execution-time
// interval [bcet, wcet], it derives each task's best-case start time
// (minStart) and worst-case completion time (maxFinish).
//
// The paper uses the analytical method of Kim et al. (DAC 2013) as its
// backend and notes that "any other schedulability analysis can be
// alternatively used as a backend as long as it can derive the worst-case/
// best-case completion/starting time of tasks". This package implements a
// holistic fixed-priority response-time analysis with jitter propagation
// (Tindell/Clark style) for distributed task graphs, which satisfies that
// contract: minStart values are true lower bounds and maxFinish values are
// safe upper bounds.
package sched

import (
	"fmt"

	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// ExecBounds is a per-node execution-time interval override, the [bcet',
// wcet'] of Algorithm 1.
type ExecBounds struct {
	B model.Time
	W model.Time
}

// Bounds are the per-node results: best-case start, best-case finish and
// worst-case finish, all relative to the owning graph's release.
type Bounds struct {
	MinStart  model.Time
	MinFinish model.Time
	MaxFinish model.Time
}

// Result is the output of one analysis run.
type Result struct {
	// Bounds holds one entry per node, indexed by platform.NodeID.
	Bounds []Bounds
	// Schedulable is true when every worst-case finish time is finite
	// (the busy-window recurrences converged).
	Schedulable bool
	// Iterations is the number of outer worst-case fixed-point sweeps
	// that changed a bound, summed over the analysis's worst-case
	// passes. Holistic and Reference sweep the same sequence of states,
	// so their counts are equal, not merely their Bounds.
	Iterations int
}

// MaxFinishOf returns the worst-case finish of a node.
func (r *Result) MaxFinishOf(id platform.NodeID) model.Time { return r.Bounds[id].MaxFinish }

// Analyzer abstracts the sched backend so alternative analyses can be
// plugged under Algorithm 1. One instance must be safe for concurrent
// use: the DSE shares its Problem's analyzer across concurrent
// candidate evaluations.
type Analyzer interface {
	// Analyze computes bounds for all nodes of sys under the given
	// execution intervals. exec must have one entry per node; use
	// NominalExec to build the fault-free default.
	Analyze(sys *platform.System, exec []ExecBounds) (*Result, error)
	// Name identifies the analyzer in reports.
	Name() string
}

// NominalExec builds the fault-free execution intervals: each task's
// nominal [bcet, wcet] including the detection overhead of re-executable
// tasks (the k = 0 case of Eq. 1). Passive replicas are NOT zeroed here;
// that adjustment belongs to the analysis wrapper (Algorithm 1 lines 2-6).
func NominalExec(sys *platform.System) []ExecBounds {
	out := make([]ExecBounds, len(sys.Nodes))
	for i, n := range sys.Nodes {
		out[i] = ExecBounds{B: n.NominalBCET(), W: n.NominalWCET()}
	}
	return out
}

// CloneExec copies an execution-interval slice.
func CloneExec(exec []ExecBounds) []ExecBounds {
	out := make([]ExecBounds, len(exec))
	copy(out, exec)
	return out
}

// ValidateExec checks that the intervals are well-formed for the system.
func ValidateExec(sys *platform.System, exec []ExecBounds) error {
	if len(exec) != len(sys.Nodes) {
		return fmt.Errorf("sched: %d execution intervals for %d nodes", len(exec), len(sys.Nodes))
	}
	for i, e := range exec {
		if e.B < 0 || e.W < 0 {
			return fmt.Errorf("sched: node %d has negative execution bound", i)
		}
		if e.B > e.W {
			return fmt.Errorf("sched: node %d has bcet %d > wcet %d", i, e.B, e.W)
		}
	}
	return nil
}
