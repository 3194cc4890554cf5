package dse

import (
	"mcmap/internal/core"
	"mcmap/internal/power"
)

// Evaluate scores one (already repaired) genome with the problem's
// configured analysis. It is pure and safe for concurrent use.
func (p *Problem) Evaluate(g *Genome, trackNoDrop bool) (*Individual, error) {
	return p.evaluate(g, trackNoDrop, p.Analysis)
}

// evaluate is Evaluate with an explicit analysis config, letting the GA
// wire in the run's shared worker pool without mutating the Problem. It
// is the one evaluation body: the drop set and service from Keep, the
// structural-validity gate, then the compile, the reliability check and
// Algorithm 1 (plus the no-dropping re-analysis under trackNoDrop), and
// finally power or the overrun penalty.
func (p *Problem) evaluate(g *Genome, trackNoDrop bool, cfg core.Config) (*Individual, error) {
	ind := &Individual{Genome: g}
	for i, name := range p.droppable {
		if g.Keep[i] {
			ind.Service += p.Apps.Graph(name).Service
		} else {
			ind.Dropped = append(ind.Dropped, name) // droppable is sorted
		}
	}

	// Structural validity: every task on an allocated processor and
	// replicas on pairwise distinct processors. Repaired genomes always
	// satisfy this; with repair disabled (ablation) violations are
	// penalized instead of erroring.
	if !p.placementOK(g) {
		ind.Power = infeasiblePenalty * 4
		ind.Objectives = Objectives{ind.Power, infeasiblePenalty}
		return ind, nil
	}

	gs, err := p.compileGenes(g)
	if err != nil {
		return nil, err
	}
	viol, err := p.violations(g, nil)
	if err != nil {
		return nil, err
	}
	sys, relOK := gs.sys, len(viol) == 0

	dropped := make(core.DropSet, len(ind.Dropped))
	for _, name := range ind.Dropped {
		dropped[name] = true
	}
	rep, err := core.Analyze(sys, dropped, cfg)
	if err != nil {
		return nil, err
	}
	ind.scen.add(rep)
	ind.GraphWCRT = rep.GraphWCRT
	ind.Feasible = rep.Feasible() && relOK
	if trackNoDrop {
		repND, err := core.Analyze(sys, core.DropSet{}, cfg)
		if err != nil {
			return nil, err
		}
		ind.scen.add(repND)
		ind.FeasibleNoDrop = repND.Feasible() && relOK
	}

	if ind.Feasible {
		ind.Power = power.Fold(p.Arch, p.geneUtil(g, gs), g.Alloc, nil)
		ind.Objectives = Objectives{ind.Power, -ind.Service}
		return ind, nil
	}
	// Penalty with an overrun gradient.
	overrun := 0.0
	for gi, gph := range sys.Apps.Graphs {
		w := rep.GraphWCRT[gi]
		d := gph.EffectiveDeadline()
		if w.IsInfinite() {
			overrun += 10
		} else if w > d {
			overrun += float64(w-d) / float64(d)
		}
	}
	overrun += float64(len(viol))
	ind.Power = infeasiblePenalty * (1 + overrun)
	ind.Objectives = Objectives{ind.Power, infeasiblePenalty}
	return ind, nil
}
