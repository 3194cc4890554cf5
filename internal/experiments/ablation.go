package experiments

import (
	"fmt"

	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/dse"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/sched"
	"mcmap/internal/texttable"
)

// AblationResult collects the design-choice comparisons DESIGN.md calls
// out: analysis backends, selection strategies, repair, and the priority
// policy that makes task dropping useful at all.
type AblationResult struct {
	// Backend comparison on Cruise (clustered mapping): per critical
	// application, the Proposed WCRT under each backend.
	BackendRows []BackendRow
	// Selector comparison on DT-med: front hypervolume and best power.
	SelectorRows []SelectorRow
	// RepairRows compares feasible yields with repair on/off.
	RepairRows []RepairRow
	// PolicyRows shows the critical WCRT with/without dropping under the
	// rate-first default and the criticality-first ablation policy.
	PolicyRows []PolicyRow
}

// BackendRow is one backend's estimate.
type BackendRow struct {
	Backend string
	WCRT    []model.Time
}

// SelectorRow is one selector's outcome.
type SelectorRow struct {
	Selector    string
	BestPower   float64
	Hypervolume float64
	FrontSize   int
}

// RepairRow is one repair mode's yield.
type RepairRow struct {
	Mode      string
	Evaluated int
	Feasible  int
}

// PolicyRow captures the dropping benefit under one priority policy.
type PolicyRow struct {
	Policy       string
	KeptWCRT     model.Time
	DroppedWCRT  model.Time
	DropImproves bool
}

// Ablations runs all four studies at the given GA budget.
func Ablations(opts dse.Options) (*AblationResult, error) {
	out := &AblationResult{}

	// --- Backends on Cruise ---------------------------------------------
	b := benchmarks.Cruise()
	sys, dropped, err := b.CompiledSample(benchmarks.MapClustered)
	if err != nil {
		return nil, err
	}
	for _, an := range []sched.Analyzer{&sched.Holistic{}, &sched.Coarse{}} {
		rep, err := core.Analyze(sys, dropped, core.Config{Analyzer: an})
		if err != nil {
			return nil, err
		}
		row := BackendRow{Backend: an.Name()}
		for _, name := range b.CriticalNames {
			row.WCRT = append(row.WCRT, rep.WCRTOf(name))
		}
		out.BackendRows = append(out.BackendRows, row)
	}

	// --- Selectors and repair on DT-med ------------------------------------
	// The four GA runs (two selectors, two repair modes) are independent;
	// they run concurrently on one shared worker pool, with rows filled
	// into their historical slots.
	dt := benchmarks.DTMed()
	p, err := dse.NewProblem(dt.Arch, dt.Apps)
	if err != nil {
		return nil, err
	}
	opts = sharedPool(opts)
	selectors := []dse.Selector{dse.SPEA2{}, dse.Elitist{}}
	out.SelectorRows = make([]SelectorRow, len(selectors))
	out.RepairRows = make([]RepairRow, 2)
	if err := runCells(len(selectors)+len(out.RepairRows), func(i int) error {
		if i < len(selectors) {
			o := opts
			o.Selector = selectors[i]
			res, err := dse.Optimize(p, o)
			if err != nil {
				return err
			}
			row := SelectorRow{Selector: selectors[i].Name(), FrontSize: len(res.Front), BestPower: -1}
			if res.Best != nil {
				row.BestPower = res.Best.Power
			}
			row.Hypervolume = dse.FrontHypervolume(res, 100)
			out.SelectorRows[i] = row
			return nil
		}
		disable := i-len(selectors) == 1
		o := opts
		o.DisableRepair = disable
		o.NoSeeds = disable
		res, err := dse.Optimize(p, o)
		if err != nil {
			return err
		}
		mode := "randomized repair"
		if disable {
			mode = "penalty only"
		}
		out.RepairRows[i-len(selectors)] = RepairRow{
			Mode: mode, Evaluated: res.Stats.Evaluated, Feasible: res.Stats.Feasible,
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// --- Priority policy vs dropping ---------------------------------------
	// Under the rate-first default, low-criticality tasks interfere with
	// critical ones and dropping helps; under criticality-first priorities
	// it cannot (they never interfere).
	mot, err := motivationSystem()
	if err != nil {
		return nil, err
	}
	for _, pol := range []platform.PriorityPolicy{platform.DefaultPolicy{}, platform.CriticalityPolicy{}} {
		sysP, err := platform.Compile(mot.arch, mot.apps, mot.mapping, pol)
		if err != nil {
			return nil, err
		}
		kept, err := core.Analyze(sysP, core.DropSet{}, core.NewConfig())
		if err != nil {
			return nil, err
		}
		droppedRep, err := core.Analyze(sysP, core.DropSet{"low": true}, core.NewConfig())
		if err != nil {
			return nil, err
		}
		out.PolicyRows = append(out.PolicyRows, PolicyRow{
			Policy:       pol.Name(),
			KeptWCRT:     kept.WCRTOf("high"),
			DroppedWCRT:  droppedRep.WCRTOf("high"),
			DropImproves: droppedRep.WCRTOf("high") < kept.WCRTOf("high"),
		})
	}
	return out, nil
}

// Render prints the four studies.
func (r *AblationResult) Render() string {
	t1 := texttable.New("Ablation: schedulability backends under Algorithm 1 (Cruise, clustered mapping)")
	t1.Row("backend", "cruise-ctrl", "engine-mon")
	t1.Sep()
	for _, row := range r.BackendRows {
		t1.Row(row.Backend, row.WCRT[0], row.WCRT[1])
	}
	t2 := texttable.New("Ablation: SPEA2 vs elitist selection (DT-med)")
	t2.Row("selector", "best power [W]", "front size", "hypervolume")
	t2.Sep()
	for _, row := range r.SelectorRows {
		t2.Row(row.Selector, fmt.Sprintf("%.3f", row.BestPower), row.FrontSize, fmt.Sprintf("%.1f", row.Hypervolume))
	}
	t3 := texttable.New("Ablation: randomized repair (DT-med)")
	t3.Row("mode", "evaluated", "feasible")
	t3.Sep()
	for _, row := range r.RepairRows {
		t3.Row(row.Mode, row.Evaluated, row.Feasible)
	}
	t4 := texttable.New("Ablation: priority policy vs task dropping (Figure 1 system, WCRT of 'high')")
	t4.Row("policy", "nothing dropped", "'low' dropped", "dropping helps")
	t4.Sep()
	for _, row := range r.PolicyRows {
		t4.Row(row.Policy, row.KeptWCRT, row.DroppedWCRT, row.DropImproves)
	}
	return t1.String() + "\n" + t2.String() + "\n" + t3.String() + "\n" + t4.String()
}
