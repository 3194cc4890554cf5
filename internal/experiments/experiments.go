// Package experiments implements the paper's evaluation (Section 5): the
// Table 2 WCRT comparison, the Section 5.2 task-dropping studies and the
// Figure 5 power/service Pareto front. Each experiment returns a typed
// result plus a paper-style text rendering, and is exercised both by
// cmd/experiments and by the repository's benchmark harness.
package experiments

import (
	"fmt"

	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/dse"
	"mcmap/internal/model"
	"mcmap/internal/sim"
	"mcmap/internal/texttable"
)

// ---------------------------------------------------------------------------
// E2 — Table 2: WCRT of the two critical applications in Cruise.

// Table2Config tunes the estimator comparison.
type Table2Config struct {
	// WCSimRuns is the number of Monte-Carlo failure profiles (the paper
	// uses 10000).
	WCSimRuns int
	// Seed drives the Monte-Carlo profiles.
	Seed int64
	// FaultScaleMult multiplies the auto-calibrated fault-rate
	// exaggeration; 8 reproduces the regime where simulation occasionally
	// beats the Adhoc trace (the paper's scheduling-anomaly observation).
	FaultScaleMult float64
}

func (c Table2Config) withDefaults() Table2Config {
	if c.WCSimRuns <= 0 {
		c.WCSimRuns = 10000
	}
	if c.FaultScaleMult <= 0 {
		c.FaultScaleMult = 8
	}
	return c
}

// Table2Cell is one WCRT estimate.
type Table2Cell struct {
	Mapping   benchmarks.MappingStrategy
	Estimator string
	// WCRT per critical application, in Table order.
	WCRT []model.Time
}

// Table2Result is the full grid.
type Table2Result struct {
	Benchmark *benchmarks.Benchmark
	Rows      []Table2Cell
	// SafeEverywhere is true when Proposed >= WC-Sim and Adhoc, and
	// Naive >= Proposed, for every mapping and application.
	SafeEverywhere bool
	// AnomalyObserved is true when WC-Sim exceeded Adhoc somewhere (the
	// paper's "simulation coverage is not enough" case).
	AnomalyObserved bool
}

// Table2 reproduces Table 2 on the Cruise benchmark. The three mapping
// strategies are estimated concurrently — each cell owns its compiled
// system — with results reduced in strategy order, so the grid is
// identical to the sequential version's.
func Table2(cfg Table2Config) (*Table2Result, error) {
	cfg = cfg.withDefaults()
	b := benchmarks.Cruise()
	res := &Table2Result{Benchmark: b, SafeEverywhere: true}
	strategies := []benchmarks.MappingStrategy{
		benchmarks.MapLoadBalance, benchmarks.MapClustered, benchmarks.MapSeededRandom,
	}
	propCfg := core.NewConfig()
	type stratResult struct {
		rows   []Table2Cell
		perEst map[string][]model.Time
	}
	cells := make([]stratResult, len(strategies))
	err := runCells(len(strategies), func(si int) error {
		strat := strategies[si]
		sys, dropped, err := b.CompiledSample(strat)
		if err != nil {
			return err
		}
		ests := []core.Estimator{
			sim.Adhoc{},
			sim.WCSim{Runs: cfg.WCSimRuns, Seed: cfg.Seed, Scale: sim.AutoFaultScale(sys) * cfg.FaultScaleMult},
			core.Proposed{Config: propCfg},
			core.Naive{},
		}
		cells[si].perEst = map[string][]model.Time{}
		for _, est := range ests {
			all, err := est.GraphWCRTs(sys, dropped)
			if err != nil {
				return fmt.Errorf("experiments: %s on %s: %w", est.Name(), strat, err)
			}
			wcrt := make([]model.Time, len(b.CriticalNames))
			for i, name := range b.CriticalNames {
				wcrt[i] = all[sys.GraphIndex(name)]
			}
			cells[si].perEst[est.Name()] = wcrt
			cells[si].rows = append(cells[si].rows, Table2Cell{Mapping: strat, Estimator: est.Name(), WCRT: wcrt})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si := range strategies {
		res.Rows = append(res.Rows, cells[si].rows...)
		perEst := cells[si].perEst
		for i := range b.CriticalNames {
			prop := perEst["Proposed"][i]
			if perEst["WC-Sim"][i] > prop || perEst["Adhoc"][i] > prop || perEst["Naive"][i] < prop {
				res.SafeEverywhere = false
			}
			if perEst["WC-Sim"][i] > perEst["Adhoc"][i] {
				res.AnomalyObserved = true
			}
		}
	}
	return res, nil
}

// Render prints the grid in the paper's layout: estimator rows, one
// column pair per mapping.
func (r *Table2Result) Render() string {
	t := texttable.New(fmt.Sprintf(
		"Table 2: WCRT [ms] of the two critical applications in the Cruise example (%s, %s)",
		r.Benchmark.CriticalNames[0], r.Benchmark.CriticalNames[1]))
	header := []any{""}
	for _, m := range []benchmarks.MappingStrategy{benchmarks.MapLoadBalance, benchmarks.MapClustered, benchmarks.MapSeededRandom} {
		header = append(header, fmt.Sprintf("Mapping %d", int(m)+1), "")
	}
	t.Row(header...)
	for _, est := range []string{"Adhoc", "WC-Sim", "Proposed", "Naive"} {
		row := []any{est}
		for _, m := range []benchmarks.MappingStrategy{benchmarks.MapLoadBalance, benchmarks.MapClustered, benchmarks.MapSeededRandom} {
			for _, c := range r.Rows {
				if c.Mapping == m && c.Estimator == est {
					for _, w := range c.WCRT {
						row = append(row, fmt.Sprintf("%.0f", w.Milliseconds()))
					}
				}
			}
		}
		if est == "Proposed" {
			t.Sep()
		}
		t.Row(row...)
	}
	out := t.String()
	out += fmt.Sprintf("safe everywhere (WC-Sim,Adhoc <= Proposed <= Naive): %v\n", r.SafeEverywhere)
	out += fmt.Sprintf("scheduling anomaly observed (WC-Sim > Adhoc):        %v\n", r.AnomalyObserved)
	return out
}

// ---------------------------------------------------------------------------
// E3 — Section 5.2: optimized power with and without task dropping.

// DropGainResult compares the optimized power of one benchmark with
// dropping enabled vs. disabled.
type DropGainResult struct {
	Benchmark    string
	WithPower    float64
	WithoutPower float64
	// ExtraPowerPct is (without-with)/with*100 — the paper reports
	// 14.66% / 16.16% / 18.52% for DT-med / DT-large / Cruise.
	ExtraPowerPct float64
	WithFeasible  bool
	BothFeasible  bool
}

// DropGain runs the with/without-dropping optimization comparison. Each
// mode is multi-started from three seeds and the best feasible design is
// taken — single GA trajectories occasionally miss the minimum processor
// allocation, which is the quantity the comparison measures. All six
// (mode, seed) GA runs execute concurrently against one shared worker
// pool; the per-mode minimum is reduced over indexed results, so the
// outcome matches the historical sequential loops.
func DropGain(benchName string, opts dse.Options) (*DropGainResult, error) {
	b, err := benchmarks.ByName(benchName)
	if err != nil {
		return nil, err
	}
	p, err := dse.NewProblem(b.Arch, b.Apps)
	if err != nil {
		return nil, err
	}
	opts = sharedPool(opts)
	type cell struct {
		power float64
		found bool
	}
	cells := make([]cell, 6)
	err = runCells(len(cells), func(i int) error {
		disableDrop := i >= 3
		o := opts
		o.Seed = opts.Seed + int64(i%3)
		o.DisableDropping = disableDrop
		if disableDrop {
			o.TrackDroppingGain = false
		}
		res, err := dse.Optimize(p, o)
		if err != nil {
			return err
		}
		if res.Best != nil {
			cells[i] = cell{power: res.Best.Power, found: true}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	best := func(disableDrop bool) (float64, bool) {
		off := 0
		if disableDrop {
			off = 3
		}
		found := false
		bestPower := 0.0
		for _, c := range cells[off : off+3] {
			if c.found && (!found || c.power < bestPower) {
				found = true
				bestPower = c.power
			}
		}
		return bestPower, found
	}
	res := &DropGainResult{Benchmark: benchName}
	withPower, withOK := best(false)
	withoutPower, withoutOK := best(true)
	if withOK {
		res.WithFeasible = true
		res.WithPower = withPower
	}
	if withOK && withoutOK {
		res.BothFeasible = true
		res.WithoutPower = withoutPower
		res.ExtraPowerPct = (withoutPower - withPower) / withPower * 100
	}
	return res, nil
}

// RenderDropGains prints the Section 5.2 power comparison.
func RenderDropGains(rows []*DropGainResult) string {
	t := texttable.New("Section 5.2: optimized expected power with vs. without task dropping")
	t.Row("benchmark", "with dropping [W]", "without dropping [W]", "extra power without")
	t.Sep()
	for _, r := range rows {
		switch {
		case !r.WithFeasible:
			t.Row(r.Benchmark, "infeasible", "-", "-")
		case !r.BothFeasible:
			t.Row(r.Benchmark, fmt.Sprintf("%.3f", r.WithPower), "infeasible", "dropping required")
		default:
			t.Row(r.Benchmark, fmt.Sprintf("%.3f", r.WithPower), fmt.Sprintf("%.3f", r.WithoutPower),
				fmt.Sprintf("+%.2f%%", r.ExtraPowerPct))
		}
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E4 — Section 5.2: dropping-rescue ratio and re-execution share.

// RescueResult carries the exploration statistics of one benchmark.
type RescueResult struct {
	Benchmark string
	Stats     dse.Stats
}

// RescueRatio tracks every explored candidate of a GA run and reports the
// fraction that is infeasible without dropping but feasible with it, plus
// the hardening-technique distribution.
func RescueRatio(benchName string, opts dse.Options) (*RescueResult, error) {
	b, err := benchmarks.ByName(benchName)
	if err != nil {
		return nil, err
	}
	p, err := dse.NewProblem(b.Arch, b.Apps)
	if err != nil {
		return nil, err
	}
	opts.TrackDroppingGain = true
	res, err := dse.Optimize(p, opts)
	if err != nil {
		return nil, err
	}
	return &RescueResult{Benchmark: benchName, Stats: res.Stats}, nil
}

// RenderRescue prints the ratio table.
func RenderRescue(rows []*RescueResult) string {
	t := texttable.New("Section 5.2: solutions rescued by task dropping, and re-execution share")
	t.Row("benchmark", "evaluated", "feasible", "rescued by dropping", "re-execution share", "scenario analyses")
	t.Sep()
	for _, r := range rows {
		t.Row(r.Benchmark, r.Stats.Evaluated, r.Stats.Feasible,
			fmt.Sprintf("%.2f%%", 100*r.Stats.RescueRatio()),
			fmt.Sprintf("%.2f%%", 100*r.Stats.ReExecutionShare()),
			fmt.Sprintf("%d (-%d dedup, -%d pruned)",
				r.Stats.ScenariosAnalyzed, r.Stats.ScenariosDeduped, r.Stats.ScenariosPruned))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// E5 — Figure 5: power/service Pareto front.

// ParetoPoint is one non-dominated design.
type ParetoPoint struct {
	Power   float64
	Service float64
	Dropped []string
}

// ParetoResult is the front for one benchmark.
type ParetoResult struct {
	Benchmark    string
	TotalService float64
	Points       []ParetoPoint
}

// Pareto runs the two-objective optimization and extracts the
// power/service front (Figure 5 uses DT-med). Three GA starts are merged
// and re-filtered for non-dominance: single trajectories occasionally
// miss extreme trade-off points.
func Pareto(benchName string, opts dse.Options) (*ParetoResult, error) {
	b, err := benchmarks.ByName(benchName)
	if err != nil {
		return nil, err
	}
	p, err := dse.NewProblem(b.Arch, b.Apps)
	if err != nil {
		return nil, err
	}
	// The three multi-start trajectories run concurrently on one shared
	// pool; fronts are unioned in seed order.
	opts = sharedPool(opts)
	fronts := make([][]*dse.Individual, 3)
	err = runCells(len(fronts), func(s int) error {
		o := opts
		o.Seed = opts.Seed + int64(s)
		res, err := dse.Optimize(p, o)
		if err != nil {
			return err
		}
		fronts[s] = res.Front
		return nil
	})
	if err != nil {
		return nil, err
	}
	var union []*dse.Individual
	for _, f := range fronts {
		union = append(union, f...)
	}
	out := &ParetoResult{Benchmark: benchName, TotalService: p.TotalService()}
	for _, ind := range union {
		dominated := false
		for _, other := range union {
			if other != ind && other.Objectives.Dominates(ind.Objectives) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		dup := false
		for _, pt := range out.Points {
			if pt.Power == ind.Power && pt.Service == ind.Service {
				dup = true
				break
			}
		}
		if !dup {
			out.Points = append(out.Points, ParetoPoint{
				Power: ind.Power, Service: ind.Service, Dropped: ind.Dropped,
			})
		}
	}
	sortParetoPoints(out.Points)
	return out, nil
}

// sortParetoPoints orders by power ascending.
func sortParetoPoints(pts []ParetoPoint) {
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].Power < pts[j-1].Power; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

// Render prints the front with an ASCII scatter.
func (r *ParetoResult) Render() string {
	t := texttable.New(fmt.Sprintf("Figure 5: power/service Pareto front for %s (total service %.0f)", r.Benchmark, r.TotalService))
	t.Row("power [W]", "service", "dropped set T_d")
	t.Sep()
	for _, pt := range r.Points {
		set := "{}"
		if len(pt.Dropped) > 0 {
			set = fmt.Sprintf("%v", pt.Dropped)
		}
		t.Row(fmt.Sprintf("%.3f", pt.Power), fmt.Sprintf("%.0f", pt.Service), set)
	}
	out := t.String()
	out += scatter(r.Points)
	return out
}

// scatter renders a small ASCII power-vs-service plot.
func scatter(points []ParetoPoint) string {
	if len(points) == 0 {
		return "(no feasible points)\n"
	}
	minP, maxP := points[0].Power, points[0].Power
	maxS := 0.0
	for _, p := range points {
		if p.Power < minP {
			minP = p.Power
		}
		if p.Power > maxP {
			maxP = p.Power
		}
		if p.Service > maxS {
			maxS = p.Service
		}
	}
	const w, h = 48, 10
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(string(make([]rune, 0)))
		grid[i] = make([]byte, w)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	for _, p := range points {
		x := 0
		if maxP > minP {
			x = int(float64(w-1) * (p.Power - minP) / (maxP - minP))
		}
		y := 0
		if maxS > 0 {
			y = int(float64(h-1) * p.Service / maxS)
		}
		grid[h-1-y][x] = '*'
	}
	out := fmt.Sprintf("service ^ (max %.0f)\n", maxS)
	for _, rowBytes := range grid {
		out += "        |" + string(rowBytes) + "\n"
	}
	out += "        +" + fmt.Sprintf("%s> power [%.2f .. %.2f W]\n", dashes(w-1), minP, maxP)
	return out
}

func dashes(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '-'
	}
	return string(b)
}
