package dse

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/reliability"
	"mcmap/internal/validate"
)

// Repair applies the paper's randomized repair heuristics (Section 4) to
// a genome in place:
//
//  1. if no processor is allocated, allocate a random one;
//  2. tasks (and replicas/voters) mapped on unallocated processors are
//     reassigned to a randomly chosen allocated processor ("invalid
//     mapping" repair);
//  3. replicas of one task must sit on pairwise distinct processors; when
//     too few processors are allocated to place them, additional
//     processors are allocated;
//  4. while a reliability constraint is violated, random hardening
//     techniques (re-execution, active or passive replication) are
//     applied to random tasks of the violating application, up to a
//     bounded number of attempts.
//
// Repair is deterministic for a given rng state. It returns false when
// the reliability repair budget was exhausted (the candidate is then
// penalized by the fitness function rather than discarded, as in the
// paper).
func (p *Problem) Repair(g *Genome, rng *rand.Rand) bool {
	p.repairAllocation(g, rng)
	p.repairMappings(g, rng)
	p.repairReplicaPlacement(g, rng)
	return p.repairReliability(g, rng)
}

func (p *Problem) repairAllocation(g *Genome, rng *rand.Rand) {
	for _, on := range g.Alloc {
		if on {
			return
		}
	}
	g.Alloc[rng.Intn(len(g.Alloc))] = true
}

// countProcs counts the processor indices that satisfy fits.
func (p *Problem) countProcs(fits func(idx int) bool) int {
	n := 0
	for idx := range p.Arch.Procs {
		if fits(idx) {
			n++
		}
	}
	return n
}

// drawProc draws uniformly among the processor indices that satisfy
// fits, in declaration order, and returns -1 without drawing when none
// does.
func (p *Problem) drawProc(rng *rand.Rand, fits func(idx int) bool) int {
	n := p.countProcs(fits)
	if n == 0 {
		return -1
	}
	k := rng.Intn(n)
	for idx := range p.Arch.Procs {
		if fits(idx) {
			if k == 0 {
				return idx
			}
			k--
		}
	}
	return -1
}

func (p *Problem) repairMappings(g *Genome, rng *rand.Rand) {
	rt := p.relTable()
	allocated := func(idx int) bool { return g.Alloc[idx] }
	// fix keeps pid when it is allocated and fits gene i's task (i < 0 is
	// a voter, which fits anywhere).
	fix := func(pid model.ProcID, i int) model.ProcID {
		fits := func(idx int) bool { return g.Alloc[idx] && (i < 0 || rt.canRun[i*rt.nproc+idx]) }
		if idx := p.Arch.ProcIndex(pid); idx >= 0 && fits(idx) {
			return pid
		}
		// Random allocated processor the task can run on; fall back to any
		// allocated one (the candidate stays structurally invalid and is
		// penalized, but the GA keeps moving).
		idx := p.drawProc(rng, fits)
		if idx < 0 {
			idx = p.drawProc(rng, allocated)
		}
		return p.Arch.Procs[idx].ID
	}
	for i := range g.Genes {
		ge := &g.Genes[i]
		ge.Map = fix(ge.Map, i)
		ge.VoterMap = fix(ge.VoterMap, -1)
		for r := range ge.ReplicaMap {
			ge.ReplicaMap[r] = fix(ge.ReplicaMap[r], i)
		}
	}
}

func (p *Problem) repairReplicaPlacement(g *Genome, rng *rand.Rand) {
	rt := p.relTable()
	for i := range g.Genes {
		ge := &g.Genes[i]
		p.validateGene(ge)
		if ge.Technique != hardening.ActiveReplication && ge.Technique != hardening.PassiveReplication {
			continue
		}
		usable := func(idx int) bool { return g.Alloc[idx] && rt.canRun[i*rt.nproc+idx] }
		spare := func(idx int) bool { return !g.Alloc[idx] && rt.canRun[i*rt.nproc+idx] }
		// Ensure enough allocated type-compatible processors exist for
		// distinct placement.
		for p.countProcs(usable) < ge.Replicas {
			off := p.drawProc(rng, spare)
			if off < 0 {
				// Platform too small for the replica count: shrink it to
				// what fits.
				ge.Replicas = p.countProcs(usable)
				if ge.Replicas < 2 {
					// Replication impossible; degrade to re-execution.
					ge.Technique = hardening.ReExecution
					ge.K = 1
				}
				p.validateGene(ge)
				break
			}
			g.Alloc[off] = true
		}
		if ge.Technique == hardening.ReExecution {
			continue
		}
		// Replicas before r are placed on pairwise distinct processors;
		// replica r keeps its processor when that one is usable and
		// still free, and moves to a random usable free one otherwise.
		for r := 0; r < ge.Replicas && r < len(ge.ReplicaMap); r++ {
			placed := ge.ReplicaMap[:r]
			if idx := p.Arch.ProcIndex(ge.ReplicaMap[r]); idx >= 0 && usable(idx) && !slices.Contains(placed, ge.ReplicaMap[r]) {
				continue
			}
			idx := p.drawProc(rng, func(idx int) bool { return usable(idx) && !slices.Contains(placed, p.Arch.Procs[idx].ID) })
			if idx < 0 {
				break // caught by the count loop above
			}
			ge.ReplicaMap[r] = p.Arch.Procs[idx].ID
		}
	}
}

// reliabilityRepairBudget bounds the random-hardening attempts per genome.
const reliabilityRepairBudget = 64

func (p *Problem) repairReliability(g *Genome, rng *rand.Rand) bool {
	rt := p.relTable()
	var viol []int
	for attempt := 0; attempt < reliabilityRepairBudget; attempt++ {
		var err error
		if viol, err = p.violations(g, viol[:0]); err != nil {
			return false
		}
		if len(viol) == 0 {
			return true
		}
		// Fail fast on provably unreachable targets: when the validator's
		// lower bound says no hardening within the chromosome caps can
		// meet a violated graph's f_t, the remaining attempts would burn
		// the whole budget for nothing. The check is pure arithmetic
		// over the platform, so it costs one pass on the first violating
		// attempt.
		if attempt == 0 {
			lim := validate.Limits{MaxK: p.MaxK, MaxReplicas: p.MaxReplicas}
			for _, v := range viol {
				if ok, _ := validate.GraphReliabilityReachable(p.Arch, rt.graphs[v].g, lim); !ok {
					return false
				}
			}
		}
		// Pick a random task of a random violating graph and harden it
		// with a random technique, as the paper prescribes.
		victim := &rt.graphs[viol[rng.Intn(len(viol))]]
		ge := &g.Genes[victim.decl[rng.Intn(len(victim.decl))]]
		switch rng.Intn(3) {
		case 0:
			ge.Technique = hardening.ReExecution
			if ge.K < p.MaxK {
				ge.K++
			} else {
				ge.K = p.MaxK
			}
		case 1:
			ge.Technique = hardening.ActiveReplication
			if ge.Replicas < 3 {
				ge.Replicas = 3
			} else if ge.Replicas < p.MaxReplicas {
				ge.Replicas++
			}
		default:
			ge.Technique = hardening.PassiveReplication
			if ge.Replicas < hardening.ActiveBase+1 {
				ge.Replicas = hardening.ActiveBase + 1
			} else if ge.Replicas < p.MaxReplicas {
				ge.Replicas++
			}
		}
		p.validateGene(ge)
		p.repairReplicaPlacement(g, rng)
		p.repairMappings(g, rng)
	}
	// Final check after the last attempt.
	viol, err := p.violations(g, viol[:0])
	return err == nil && len(viol) == 0
}

// relTable is the dense form of everything the reliability constraint
// and the mapping repairs read from a genome, indexed by gene (the
// chromosome's task order) and processor index. It is independent of
// the chromosome caps, which callers may raise after NewProblem, and is
// built on first use, so problem setup does not pay for it.
type relTable struct {
	nproc int
	// fail[i*nproc+j] is the single-execution failure probability of
	// gene i's task on processor j; canRun[i*nproc+j] whether the task
	// may run there at all.
	fail   []float64
	canRun []bool
	// artifact marks genes whose task is a voter or dispatch step in the
	// specification: reliability.Assess counts such a task only through
	// replicas the DSE gives it.
	artifact []bool
	// graphs in name order, the order Assess lists violations in.
	graphs []relGraph
}

// relGraph holds one graph's gene indices in TaskID order (the fold
// order) and in task declaration order (repair's victim draw).
type relGraph struct {
	g            *model.TaskGraph
	sorted, decl []int
}

// relTable returns the problem's reliability table, building it on
// first use.
func (p *Problem) relTable() *relTable {
	p.relOnce.Do(func() {
		procs := p.Arch.Procs
		n := len(p.taskIDs) * len(procs)
		rt := &relTable{
			nproc:    len(procs),
			fail:     make([]float64, n),
			canRun:   make([]bool, n),
			artifact: make([]bool, len(p.taskIDs)),
		}
		for _, g := range p.Apps.Graphs {
			rg := relGraph{g: g, decl: make([]int, len(g.Tasks))}
			for k, t := range g.Tasks {
				i := p.geneIdx[t.ID]
				rg.decl[k] = i
				rt.artifact[i] = t.Kind == model.KindVoter || t.Kind == model.KindDispatch
				for j := range procs {
					rt.fail[i*rt.nproc+j] = reliability.ExecFailureProb(procs[j].FaultRate, procs[j].ScaleExec(t.WCET))
					rt.canRun[i*rt.nproc+j] = t.CanRunOn(procs[j].Type)
				}
			}
			// Genes are numbered in TaskID order.
			rg.sorted = slices.Clone(rg.decl)
			slices.Sort(rg.sorted)
			rt.graphs = append(rt.graphs, rg)
		}
		slices.SortFunc(rt.graphs, func(a, b relGraph) int { return strings.Compare(a.g.Name, b.g.Name) })
		p.rel = rt
	})
	return p.rel
}

// violations appends to dst the relTable.graphs indices of the graphs
// whose reliability constraint g violates: the graphs, in the same
// order, that reliability.Assess lists for g's decoded design. Like
// Assess it fails when a counted task instance sits on an unknown
// processor.
func (p *Problem) violations(g *Genome, dst []int) ([]int, error) {
	for v := range p.relTable().graphs {
		_, violated, err := p.graphVerdict(g, v)
		if err != nil {
			return dst, err
		}
		if violated {
			dst = append(dst, v)
		}
	}
	return dst, nil
}

// graphVerdict folds graph v's per-task unsafe probabilities under g
// into the failure rate Assess reports for it (bit for bit) and whether
// that rate violates f_t.
func (p *Problem) graphVerdict(g *Genome, v int) (float64, bool, error) {
	rt := p.relTable()
	var buf [8]float64
	fold := reliability.NewFold()
	for _, i := range rt.graphs[v].sorted {
		ge := g.Genes[i]
		p.validateGene(&ge)
		var procs []model.ProcID
		switch ge.Technique {
		case hardening.ActiveReplication, hardening.PassiveReplication:
			procs = replicasByID(ge.ReplicaMap[:ge.Replicas])
		default:
			if rt.artifact[i] {
				continue
			}
			procs = []model.ProcID{ge.Map}
		}
		probs := buf[:0]
		for _, pid := range procs {
			j := p.Arch.ProcIndex(pid)
			if j < 0 {
				return 0, false, fmt.Errorf("dse: task %q mapped to unknown processor %d", p.taskIDs[i], pid)
			}
			probs = append(probs, rt.fail[i*rt.nproc+j])
		}
		fold.Add(reliability.TaskUnsafeProb(ge.Technique, ge.K, probs))
	}
	_, rate, violated := fold.Verdict(rt.graphs[v].g)
	return rate, violated, nil
}

// replicasByID orders replica placements like their "#r<i>" IDs sort:
// by index up to 10 replicas, lexically above (#r1 < #r10 < #r2).
func replicasByID(placed []model.ProcID) []model.ProcID {
	if len(placed) <= 10 {
		return placed
	}
	idx := make([]int, len(placed))
	for r := range idx {
		idx[r] = r
	}
	slices.SortFunc(idx, func(a, b int) int { return strings.Compare(strconv.Itoa(a), strconv.Itoa(b)) })
	out := make([]model.ProcID, len(placed))
	for k, r := range idx {
		out[k] = placed[r]
	}
	return out
}
