// Package reliability evaluates the probability of unsafe execution of
// each application against its reliability constraint f_t (maximum
// allowable failures per time unit, Section 2.1). It models transient
// faults as a Poisson process with the per-processor rate lambda_p, so one
// execution of length C on processor p fails with probability
// 1 - exp(-lambda_p * C).
//
// Hardening changes the per-task unsafe probability:
//
//   - re-execution with budget k fails only when all k+1 attempts fail;
//   - n-replica majority voting fails when more than floor((n-1)/2)
//     replicas fail (a 2-replica scheme detects but cannot correct, so any
//     replica fault is unsafe);
//   - passive replication is evaluated like majority voting over the full
//     replica set — the tie-break replica participates in the vote.
//
// Voters are assumed reliable (they are small and typically hardened in
// hardware), matching the paper's model where only task executions fail.
package reliability

import (
	"fmt"
	"math"
	"sort"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
)

// ExecFailureProb returns 1 - exp(-lambda * c): the probability that a
// single execution of length c on a processor with fault rate lambda (per
// microsecond) is hit by at least one transient fault.
func ExecFailureProb(lambda float64, c model.Time) float64 {
	if lambda <= 0 || c <= 0 {
		return 0
	}
	return 1 - math.Exp(-lambda*float64(c))
}

// Assessment is the reliability verdict for a hardened, mapped design.
type Assessment struct {
	// TaskUnsafe is the per-original-task unsafe-execution probability
	// per invocation.
	TaskUnsafe map[model.TaskID]float64
	// GraphUnsafePerPeriod is the probability that at least one task of
	// the graph executes unsafely during one period.
	GraphUnsafePerPeriod map[string]float64
	// GraphFailureRate is failures per microsecond
	// (unsafe-per-period / period), comparable against f_t.
	GraphFailureRate map[string]float64
	// Violations lists non-droppable graphs whose failure rate exceeds
	// f_t, sorted by name.
	Violations []string
}

// OK reports whether every reliability constraint holds.
func (a *Assessment) OK() bool { return len(a.Violations) == 0 }

// Assess computes the assessment for a hardened application set under the
// given mapping. The mapping must cover all transformed tasks.
func Assess(arch *model.Architecture, man *hardening.Manifest, mapping model.Mapping) (*Assessment, error) {
	a := &Assessment{
		TaskUnsafe:           make(map[model.TaskID]float64),
		GraphUnsafePerPeriod: make(map[string]float64),
		GraphFailureRate:     make(map[string]float64),
	}
	for _, g := range man.Apps.Graphs {
		fold := NewFold()
		groups := originalsOf(g, man)
		// Sorted iteration keeps the float product order-deterministic
		// (map order would make borderline verdicts flip between runs).
		origs := make([]model.TaskID, 0, len(groups))
		for orig := range groups {
			origs = append(origs, orig)
		}
		sort.Slice(origs, func(i, j int) bool { return origs[i] < origs[j] })
		for _, orig := range origs {
			p, err := taskUnsafeProb(arch, man, mapping, orig, groups[orig])
			if err != nil {
				return nil, err
			}
			a.TaskUnsafe[orig] = p
			fold.Add(p)
		}
		unsafe, rate, violated := fold.Verdict(g)
		a.GraphUnsafePerPeriod[g.Name] = unsafe
		a.GraphFailureRate[g.Name] = rate
		if violated {
			a.Violations = append(a.Violations, g.Name)
		}
	}
	sort.Strings(a.Violations)
	return a, nil
}

// originalsOf groups the transformed tasks of one graph by their original
// task, skipping voters and dispatch steps (assumed reliable: they are
// small and typically realized in hardened logic).
func originalsOf(g *model.TaskGraph, man *hardening.Manifest) map[model.TaskID][]*model.Task {
	out := make(map[model.TaskID][]*model.Task)
	for _, t := range g.Tasks {
		if t.Kind == model.KindVoter || t.Kind == model.KindDispatch {
			continue
		}
		out[man.OriginalOf(t.ID)] = append(out[man.OriginalOf(t.ID)], t)
	}
	return out
}

// Fold accumulates a graph's per-task unsafe probabilities, added in
// TaskID order, into the graph's verdict. Assess and the DSE's
// gene-level check both fold through it (and TaskUnsafeProb), so their
// floating-point operations run in the same order and their verdicts
// are bit-identical.
type Fold struct{ safe float64 }

// NewFold starts the fold of one graph.
func NewFold() Fold { return Fold{safe: 1} }

// Add folds in one task's unsafe probability.
func (f *Fold) Add(p float64) { f.safe *= 1 - p }

// Verdict returns the probability that at least one folded task executes
// unsafely during one period of g, that probability per microsecond
// (comparable against f_t), and whether it violates g's f_t; droppable
// graphs never do.
func (f Fold) Verdict(g *model.TaskGraph) (unsafe, rate float64, violated bool) {
	unsafe = 1 - f.safe
	rate = unsafe / float64(g.Period)
	return unsafe, rate, !g.Droppable() && rate > g.ReliabilityBound
}

// TaskUnsafeProb is the per-invocation unsafe probability of one original
// task hardened with technique t (re-execution degree k) whose instances
// fail with the single-execution probabilities probs: the task's own, or
// one per replica in replica-ID order. Re-execution fails only when all
// k+1 attempts fail, replication when the majority vote does.
func TaskUnsafeProb(t hardening.Technique, k int, probs []float64) float64 {
	switch t {
	case hardening.ReExecution:
		return math.Pow(probs[0], float64(k+1))
	case hardening.ActiveReplication, hardening.PassiveReplication:
		// Passive tie-breakers take part in the vote.
		return majorityFailureProb(probs)
	default:
		return probs[0]
	}
}

// taskUnsafeProb computes the unsafe probability of one original task from
// its implementing instances.
func taskUnsafeProb(arch *model.Architecture, man *hardening.Manifest, mapping model.Mapping, orig model.TaskID, instances []*model.Task) (float64, error) {
	d := man.Plan[orig]
	if d.Technique != hardening.ActiveReplication && d.Technique != hardening.PassiveReplication {
		if len(instances) != 1 {
			return 0, fmt.Errorf("reliability: task %q (%s) has %d instances", orig, d.Technique, len(instances))
		}
		p, err := instanceFailureProb(arch, mapping, instances[0])
		if err != nil {
			return 0, err
		}
		return TaskUnsafeProb(d.Technique, d.K, []float64{p}), nil
	}
	// Replicas in ID order: the order the vote multiplies in.
	sorted := append([]*model.Task(nil), instances...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	probs := make([]float64, 0, len(sorted))
	for _, inst := range sorted {
		p, err := instanceFailureProb(arch, mapping, inst)
		if err != nil {
			return 0, err
		}
		probs = append(probs, p)
	}
	return TaskUnsafeProb(d.Technique, d.K, probs), nil
}

// instanceFailureProb is the single-execution failure probability of one
// transformed task on its mapped processor, using its worst-case execution
// time (longer exposure, conservative).
func instanceFailureProb(arch *model.Architecture, mapping model.Mapping, t *model.Task) (float64, error) {
	pid, ok := mapping[t.ID]
	if !ok {
		return 0, fmt.Errorf("reliability: task %q is unmapped", t.ID)
	}
	proc := arch.Proc(pid)
	if proc == nil {
		return 0, fmt.Errorf("reliability: task %q mapped to unknown processor %d", t.ID, pid)
	}
	return ExecFailureProb(proc.FaultRate, proc.ScaleExec(t.WCET)), nil
}

// majorityFailureProb returns the probability that a majority vote over
// independent replicas with the given failure probabilities does not yield
// a correct result: more than floor((n-1)/2) failures for n >= 3, any
// failure for n == 2 (detection without correction), and the bare failure
// probability for n == 1.
func majorityFailureProb(probs []float64) float64 {
	n := len(probs)
	switch n {
	case 0:
		return 0
	case 1:
		return probs[0]
	case 2:
		return 1 - (1-probs[0])*(1-probs[1])
	}
	tolerable := (n - 1) / 2
	if n > enumerateMax {
		// Exact distribution of the failure count, replica by replica:
		// O(n^2) where the enumeration below is O(n*2^n).
		dist := make([]float64, n+1)
		dist[0] = 1
		for i, p := range probs {
			for j := i + 1; j > 0; j-- {
				dist[j] = dist[j]*(1-p) + dist[j-1]*p
			}
			dist[0] *= 1 - p
		}
		var unsafe float64
		for _, q := range dist[tolerable+1:] {
			unsafe += q
		}
		return unsafe
	}
	// Enumerate failure patterns. Up to enumerateMax replicas this keeps
	// the floating-point summation order every recorded figure was taken
	// with.
	var unsafe float64
	for mask := 0; mask < 1<<n; mask++ {
		fails := 0
		p := 1.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				fails++
				p *= probs[i]
			} else {
				p *= 1 - probs[i]
			}
		}
		if fails > tolerable {
			unsafe += p
		}
	}
	return unsafe
}

// enumerateMax is the largest replica count majorityFailureProb sums by
// enumerating failure patterns: the DSE's default replica cap and the
// largest count in any bundled plan. Above it the failure-count
// recurrence takes over, which agrees with the enumeration to rounding.
const enumerateMax = 4

// RequiredReExecutions returns the smallest k such that re-executing the
// task k times on the given processor meets the per-period failure budget,
// or -1 if even the cap (MaxK) is insufficient.
func RequiredReExecutions(lambda float64, wcetPlusDt model.Time, budget float64, maxK int) int {
	p := ExecFailureProb(lambda, wcetPlusDt)
	acc := p
	for k := 0; k <= maxK; k++ {
		if acc <= budget {
			return k
		}
		acc *= p
	}
	return -1
}
