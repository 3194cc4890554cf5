package validate

import (
	"fmt"
	"math"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/reliability"
)

// This file implements the MC0117 reachability check: is there ANY
// hardening assignment within the DSE limits under which a graph's
// reliability bound f_t could hold? The check computes a LOWER bound on
// the achievable failure rate — every approximation is chosen to
// under-estimate, so an Error here means the target is provably
// unreachable and the DSE repair loop would burn its whole budget for
// nothing. A passing check promises nothing about feasibility.

// minInstanceUnsafe returns the smallest single-execution failure
// probability any compatible processor can give the task (floor-scaled
// exposure, so the bound stays a lower bound under speed scaling), and
// whether a compatible processor exists at all.
func minInstanceUnsafe(arch *model.Architecture, t *model.Task) (float64, bool) {
	best := math.Inf(1)
	for i := range arch.Procs {
		p := &arch.Procs[i]
		if !t.CanRunOn(p.Type) {
			continue
		}
		pf := reliability.ExecFailureProb(p.FaultRate, p.ScaleExecFloor(t.WCET))
		if pf < best {
			best = pf
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// compatibleProcs counts the processors the task may map to (the cap on
// distinct replica placement).
func compatibleProcs(arch *model.Architecture, t *model.Task) int {
	n := 0
	for i := range arch.Procs {
		if t.CanRunOn(arch.Procs[i].Type) {
			n++
		}
	}
	return n
}

// minTaskUnsafe returns a lower bound on the unsafe-execution
// probability of one task under the best hardening the limits admit on
// this platform: unhardened, re-executed up to lim.MaxK times, or
// replicated with a majority vote over up to lim.MaxReplicas replicas
// on distinct compatible processors. Every candidate is scored by
// reliability.TaskUnsafeProb with each instance failing with the
// per-execution minimum p, which lower-bounds the real value because
// the unsafe probability is monotone in every instance probability.
func minTaskUnsafe(arch *model.Architecture, t *model.Task, lim Limits) (float64, bool) {
	p, ok := minInstanceUnsafe(arch, t)
	if !ok {
		return 0, false
	}
	// The replicas as n copies of p, in a buffer that covers the usual
	// replica caps without a heap allocation.
	var buf [8]float64
	probs := append(buf[:0], p, p)
	best := p
	k := lim.MaxK
	if t.ReExec > k {
		k = t.ReExec
	}
	if k > 0 {
		if v := reliability.TaskUnsafeProb(hardening.ReExecution, k, probs[:1]); v < best {
			best = v
		}
	}
	maxN := lim.MaxReplicas
	if c := compatibleProcs(arch, t); maxN > c {
		maxN = c
	}
	for n := 3; n <= maxN; n++ {
		probs = append(probs, p)
		if v := reliability.TaskUnsafeProb(hardening.ActiveReplication, 0, probs); v < best {
			best = v
		}
	}
	return best, true
}

// GraphMinFailureRate returns a lower bound on the failure rate
// (failures per microsecond, comparable against f_t) any design within
// the hardening limits can achieve for the graph. The second result is
// false when the bound could not be computed (task without a compatible
// processor, non-positive period, or an already-transformed graph —
// reachability reasons about the untransformed task set).
func GraphMinFailureRate(arch *model.Architecture, g *model.TaskGraph, lim Limits) (float64, bool) {
	if g == nil || g.Period <= 0 {
		return 0, false
	}
	sum := 0.0
	for _, t := range g.Tasks {
		if t == nil {
			return 0, false
		}
		if t.Kind != model.KindRegular {
			return 0, false
		}
		p, ok := minTaskUnsafe(arch, t, lim)
		if !ok {
			return 0, false
		}
		sum += p
	}
	// 1 - prod(1-p_t) >= 1 - exp(-sum p_t): a valid lower bound (since
	// 1-p <= e^-p) that expm1 keeps accurate where the naive product
	// underflows to exactly 1.0 for the ~1e-20 probabilities hardened
	// tasks reach.
	return -math.Expm1(-sum) / float64(g.Period), true
}

// GraphReliabilityReachable reports whether the graph's reliability
// bound f_t could possibly be met within the hardening limits. It is
// vacuously true for droppable graphs and for graphs whose bound could
// not be computed (see GraphMinFailureRate); the returned rate is the
// computed lower bound (0 when not computed).
func GraphReliabilityReachable(arch *model.Architecture, g *model.TaskGraph, lim Limits) (bool, float64) {
	if g == nil || g.Droppable() {
		return true, 0
	}
	rate, ok := GraphMinFailureRate(arch, g, lim)
	if !ok {
		return true, 0
	}
	return rate <= g.ReliabilityBound, rate
}

// checkReliabilityReachable reports MC0117 for every non-droppable
// graph whose bound is provably out of reach.
func checkReliabilityReachable(r *Result, arch *model.Architecture, apps *model.AppSet, lim Limits) {
	for _, g := range apps.Graphs {
		if ok, rate := GraphReliabilityReachable(arch, g, lim); !ok {
			r.report("MC0117", Error, "graph "+g.Name,
				fmt.Sprintf("reliability bound %.3g is unreachable: even maximal hardening (k<=%d, replicas<=%d) leaves a failure rate >= %.3g",
					g.ReliabilityBound, lim.MaxK, lim.MaxReplicas, rate),
				"relax f_t, lower the fault rates, or raise the hardening limits")
		}
	}
}
