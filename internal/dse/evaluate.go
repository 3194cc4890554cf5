package dse

import (
	"slices"
	"sync"

	"mcmap/internal/core"
	"mcmap/internal/power"
)

// Evaluate scores one (already repaired) genome with the problem's
// configured analysis. It is pure and safe for concurrent use.
func (p *Problem) Evaluate(g *Genome, trackNoDrop bool) (*Individual, error) {
	return p.evaluate(g, trackNoDrop, p.Analysis)
}

// evalWorkspace is the memory one evaluation works in: the compile
// buffers and System builder, the Algorithm 1 workspace, the drop set
// handed to it and the violation list. Evaluations draw one from
// evalPool per call, so every concurrent evaluation owns one, and it
// serves genomes of any problem. The System and Reports built in it
// live until its next evaluation: evaluate copies out what an
// Individual keeps.
type evalWorkspace struct {
	gs      geneSystem
	an      core.Workspace
	dropped core.DropSet
	viol    []int
}

func newEvalWorkspace() *evalWorkspace { return &evalWorkspace{dropped: core.DropSet{}} }

var evalPool = sync.Pool{New: func() any { return newEvalWorkspace() }}

// evaluate is Evaluate with an explicit analysis config, letting the GA
// wire in the run's shared worker pool without mutating the Problem. It
// runs evaluateIn in a workspace drawn from evalPool.
func (p *Problem) evaluate(g *Genome, trackNoDrop bool, cfg core.Config) (*Individual, error) {
	ws := evalPool.Get().(*evalWorkspace)
	defer evalPool.Put(ws)
	return p.evaluateIn(ws, g, trackNoDrop, cfg)
}

// evaluateIn is the one evaluation body, working in ws: the drop set
// and service from Keep, the structural-validity gate, then the
// compile, the reliability check and Algorithm 1 (plus the no-dropping
// re-analysis under trackNoDrop), and finally power or the overrun
// penalty.
func (p *Problem) evaluateIn(ws *evalWorkspace, g *Genome, trackNoDrop bool, cfg core.Config) (*Individual, error) {
	ind := &Individual{Genome: g}
	drops := 0
	for i := range p.droppable {
		if !g.Keep[i] {
			drops++
		}
	}
	if drops > 0 {
		ind.Dropped = make([]string, 0, drops)
	}
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

	gs := &ws.gs
	if err := p.compileInto(gs, g); err != nil {
		return nil, err
	}
	viol, err := p.violations(g, ws.viol[:0])
	ws.viol = viol
	if err != nil {
		return nil, err
	}
	sys, relOK := gs.sys, len(viol) == 0

	clear(ws.dropped)
	for _, name := range ind.Dropped {
		ws.dropped[name] = true
	}
	rep, err := ws.an.Analyze(sys, ws.dropped, cfg)
	if err != nil {
		return nil, err
	}
	ind.scen.add(rep)
	// The report is the workspace's: keep a copy of what outlives it.
	ind.GraphWCRT = slices.Clone(rep.GraphWCRT)
	ind.Feasible = rep.Feasible() && relOK
	if trackNoDrop {
		clear(ws.dropped)
		repND, err := ws.an.Analyze(sys, ws.dropped, cfg)
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
	// Penalty with an overrun gradient, from the copy: under trackNoDrop
	// the workspace's report now holds the no-dropping analysis.
	overrun := 0.0
	for gi, gph := range sys.Apps.Graphs {
		w := ind.GraphWCRT[gi]
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
