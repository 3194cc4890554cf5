// Package power implements the paper's optimization objective: expected
// power consumption sum_p (stat_p + dyn_p * u_p) over the allocated
// processors, where u_p is the expected utilization of processor p
// (Section 2.3).
//
// The expectation accounts for the hardening dynamics:
//
//   - re-executable tasks contribute (wcet+dt) * sum_{i=0..k} p_f^i — the
//     expected number of attempts times the per-attempt cost;
//   - active replicas contribute their full cost on every period;
//   - passive replicas contribute cost weighted by their invocation
//     probability (any active sibling failing), which is exactly the
//     average-power advantage of passive replication the paper describes;
//   - voters contribute their voting overhead every period.
//
// Dropped-state residency is fault-driven and rare, so its power effect is
// neglected (documented substitution; the ordering between designs is
// unaffected).
package power

import (
	"fmt"
	"math"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/reliability"
)

// Breakdown is the per-processor power decomposition.
type Breakdown struct {
	// Util is the expected utilization of each allocated processor.
	Util map[model.ProcID]float64
	// PerProc is stat_p + dyn_p * u_p for each allocated processor.
	PerProc map[model.ProcID]float64
	// Total is the objective value in watts.
	Total float64
}

// Expected computes the expected power of a hardened, mapped design.
// allocated is the set of powered-on processors; nil means "processors
// hosting at least one task". Hosting a task on an unallocated processor
// is an error (the DSE layer repairs such candidates before evaluation).
func Expected(arch *model.Architecture, man *hardening.Manifest, mapping model.Mapping, allocated map[model.ProcID]bool) (*Breakdown, error) {
	if allocated == nil {
		allocated = mapping.UsedProcs()
	}
	util := make([]float64, len(arch.Procs))
	hosts := make([]bool, len(arch.Procs))
	for _, g := range man.Apps.Graphs {
		period := float64(g.Period)
		for _, t := range g.Tasks {
			pid, ok := mapping[t.ID]
			if !ok {
				return nil, fmt.Errorf("power: task %q is unmapped", t.ID)
			}
			j := arch.ProcIndex(pid)
			if j < 0 {
				return nil, fmt.Errorf("power: task %q mapped to unknown processor %d", t.ID, pid)
			}
			if !allocated[pid] {
				return nil, fmt.Errorf("power: task %q mapped to unallocated processor %d", t.ID, pid)
			}
			var invoke float64
			if t.Passive && t.Kind != model.KindVoter {
				var err error
				if invoke, err = invocationProb(arch, man, mapping, t); err != nil {
					return nil, err
				}
			}
			util[j] += TaskLoad(&arch.Procs[j], t, invoke) / period
			hosts[j] = true
		}
	}
	on := make([]bool, len(arch.Procs))
	for pid, v := range allocated {
		if !v {
			continue
		}
		j := arch.ProcIndex(pid)
		if j < 0 {
			return nil, fmt.Errorf("power: allocated processor %d not in architecture", pid)
		}
		on[j] = true
	}
	b := &Breakdown{Util: make(map[model.ProcID]float64), PerProc: make(map[model.ProcID]float64)}
	for j, h := range hosts {
		if h {
			b.Util[arch.Procs[j].ID] = util[j]
		}
	}
	b.Total = Fold(arch, util, on, b.PerProc)
	return b, nil
}

// Fold sums stat_p + dyn_p * min(u_p, 1) over the allocated processors
// in architecture order — the one accumulation order, so every caller
// gets bit-identical totals (map order would make totals, and thus GA
// decisions, nondeterministic). util and on are indexed like
// arch.Procs; perProc, when non-nil, receives every allocated
// processor's term.
func Fold(arch *model.Architecture, util []float64, on []bool, perProc map[model.ProcID]float64) float64 {
	var total float64
	for j := range arch.Procs {
		if j >= len(on) || !on[j] {
			continue
		}
		proc := &arch.Procs[j]
		p := proc.StaticPower + proc.DynPower*math.Min(util[j], 1.0)
		if perProc != nil {
			perProc[proc.ID] = p
		}
		total += p
	}
	return total
}

// TaskLoad returns the expected execution time that one transformed task
// spends on proc per period. invoke is the invocation probability of a
// passive replica and is ignored for every other task.
func TaskLoad(proc *model.Processor, t *model.Task, invoke float64) float64 {
	switch {
	case t.Kind == model.KindVoter:
		return float64(proc.ScaleExec(t.WCET))
	case t.Passive:
		return invoke * float64(proc.ScaleExec(t.WCET))
	case t.ReExecutable():
		attempt := float64(proc.ScaleExec(t.WCET + t.DetectOverhead))
		pf := reliability.ExecFailureProb(proc.FaultRate, proc.ScaleExec(t.WCET+t.DetectOverhead))
		// Expected attempts: sum_{i=0..k} p_f^i (attempt i happens when
		// the previous i attempts all failed).
		exp := 0.0
		acc := 1.0
		for i := 0; i <= t.ReExec; i++ {
			exp += acc
			acc *= pf
		}
		return attempt * exp
	default:
		return float64(proc.ScaleExec(t.WCET))
	}
}

// invocationProb is the probability that a passive replica is invoked: at
// least one active sibling fails during its execution.
func invocationProb(arch *model.Architecture, man *hardening.Manifest, mapping model.Mapping, t *model.Task) (float64, error) {
	orig := man.OriginalOf(t.ID)
	allGood := 1.0
	for _, sid := range man.InstancesOf(orig) {
		if sid == t.ID {
			continue
		}
		g := man.Apps.GraphOf(sid)
		if g == nil {
			return 0, fmt.Errorf("power: instance %q of %q not found", sid, orig)
		}
		sib := g.Task(sid)
		if sib.Passive {
			continue
		}
		pid, ok := mapping[sid]
		if !ok {
			return 0, fmt.Errorf("power: replica %q is unmapped", sid)
		}
		proc := arch.Proc(pid)
		if proc == nil {
			return 0, fmt.Errorf("power: replica %q mapped to unknown processor %d", sid, pid)
		}
		allGood *= 1 - reliability.ExecFailureProb(proc.FaultRate, proc.ScaleExec(sib.WCET))
	}
	return 1 - allGood, nil
}
