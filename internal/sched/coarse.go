package sched

import (
	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// Coarse is a deliberately simple alternative backend demonstrating the
// paper's claim that Algorithm 1 "is not specific to a certain analysis
// method": any analysis able to derive best-case start and worst-case
// finish times can be plugged in.
//
// Its bounds are obviously safe and very loose:
//
//   - best case: precedence-only forward pass (identical to the first
//     phase of Holistic);
//   - worst case: a job's finish is its worst activation plus its own
//     execution plus the sum of EVERY other job on the same processor
//     whose execution can overlap its lifetime, excluding only transitive
//     relatives (which cannot interfere by construction). No priority
//     reasoning, no window exclusions, no blocking refinement — lower
//     priority jobs are charged too, which covers any work-conserving
//     local scheduler, preemptive or not.
//
// It is useful as a sanity oracle (Holistic must never exceed it), as a
// drop-in for the wrapper ablation benchmarks, and as a template for
// integrating external analyses.
type Coarse struct{}

// coarseSweepCap caps Coarse's activation fixed point.
const coarseSweepCap = 64

// Name implements Analyzer.
func (c *Coarse) Name() string { return "coarse-sum" }

// Analyze implements Analyzer.
func (c *Coarse) Analyze(sys *platform.System, exec []ExecBounds) (*Result, error) {
	if err := ValidateExec(sys, exec); err != nil {
		return nil, err
	}
	n := len(sys.Nodes)
	res := &Result{Bounds: make([]Bounds, n)}

	// Best case: precedence chains only.
	for gi := range sys.GraphNodes {
		for _, nid := range sys.GraphNodes[gi] {
			node := sys.Nodes[nid]
			start := node.Release
			for _, e := range node.In {
				f := model.SatAdd(res.Bounds[e.From].MinFinish, e.Delay)
				if f > start {
					start = f
				}
			}
			res.Bounds[nid].MinStart = start
			res.Bounds[nid].MinFinish = model.SatAdd(start, exec[nid].B)
		}
	}

	// Worst case: activation fixed point with whole-processor demand.
	maxFinish := make([]model.Time, n)
	for i := range maxFinish {
		maxFinish[i] = res.Bounds[i].MinFinish
	}
	limit := sys.Hyperperiod * 4
	iters := 0
	for ; iters < coarseSweepCap; iters++ {
		changed := false
		for gi := range sys.GraphNodes {
			for _, nid := range sys.GraphNodes[gi] {
				node := sys.Nodes[nid]
				act := node.Release
				for _, e := range node.In {
					f := model.SatAdd(maxFinish[e.From], e.Delay)
					if f > act {
						act = f
					}
				}
				fin := model.SatAdd(act, exec[nid].W)
				if exec[nid].W > 0 {
					for _, pid := range sys.ProcNodes[node.Proc] {
						if pid == nid {
							continue
						}
						if sys.IsAncestor(pid, nid) || sys.IsAncestor(nid, pid) {
							continue
						}
						fin = model.SatAdd(fin, exec[pid].W)
					}
				}
				if fin > limit {
					fin = model.Infinity
				}
				if fin != maxFinish[nid] {
					maxFinish[nid] = fin
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	res.Iterations = iters

	res.Schedulable = true
	for i := range maxFinish {
		res.Bounds[i].MaxFinish = maxFinish[i]
		if maxFinish[i].IsInfinite() || maxFinish[i] > sys.Nodes[i].AbsDeadline {
			res.Schedulable = false
		}
	}
	return res, nil
}
