package dse

import (
	"math/rand"
	"testing"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/reliability"
)

// tinyProblem is a small instance with enough slack to contain feasible
// designs but tight enough that dropping matters.
func tinyProblem(t *testing.T) *Problem {
	t.Helper()
	arch := &model.Architecture{
		Name: "quad",
		Procs: []model.Processor{
			{ID: 0, Name: "p0", StaticPower: 0.2, DynPower: 1, FaultRate: 1e-8},
			{ID: 1, Name: "p1", StaticPower: 0.2, DynPower: 1, FaultRate: 1e-8},
			{ID: 2, Name: "p2", StaticPower: 0.3, DynPower: 1.2, FaultRate: 1e-8},
			{ID: 3, Name: "p3", StaticPower: 0.3, DynPower: 1.2, FaultRate: 1e-8},
		},
		Fabric: model.Fabric{Bandwidth: 100, BaseLatency: 20},
	}
	ms := model.Millisecond
	crit := model.NewTaskGraph("crit", 100*ms).SetCritical(1e-11)
	crit.Deadline = 90 * ms
	crit.AddTask("a", 8*ms, 15*ms, 2*ms, 2*ms)
	crit.AddTask("b", 10*ms, 18*ms, 2*ms, 2*ms)
	crit.AddChannel("a", "b", 128)
	soft1 := model.NewTaskGraph("soft1", 50*ms).SetService(4)
	soft1.AddTask("x", 5*ms, 9*ms, 0, 0)
	soft2 := model.NewTaskGraph("soft2", 100*ms).SetService(2)
	soft2.AddTask("y", 6*ms, 12*ms, 0, 0)
	p, err := NewProblem(arch, model.NewAppSet(crit, soft1, soft2))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProblemLayout(t *testing.T) {
	p := tinyProblem(t)
	if len(p.TaskIDs()) != 4 {
		t.Errorf("TaskIDs = %v", p.TaskIDs())
	}
	if got := p.DroppableNames(); len(got) != 2 || got[0] != "soft1" || got[1] != "soft2" {
		t.Errorf("DroppableNames = %v", got)
	}
	if p.TotalService() != 6 {
		t.Errorf("TotalService = %v", p.TotalService())
	}
}

func TestGenomeCloneIndependence(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(1))
	g := p.RandomGenome(rng)
	c := g.Clone()
	c.Alloc[0] = !c.Alloc[0]
	c.Keep[0] = !c.Keep[0]
	c.Genes[0].ReplicaMap[0] = 99
	if g.Alloc[0] == c.Alloc[0] || g.Keep[0] == c.Keep[0] {
		t.Error("Clone shares bit sections")
	}
	if g.Genes[0].ReplicaMap[0] == 99 {
		t.Error("Clone shares replica maps")
	}
}

func TestGenomeKeyDistinguishes(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(1))
	g := p.RandomGenome(rng)
	if g.Key128() != g.Clone().Key128() {
		t.Error("identical genomes must share keys")
	}
	// Every chromosome section must feed the fingerprint, including
	// fields wider than a byte (the superseded string key truncated
	// those).
	mutants := map[string]func(*Genome){
		"keep":        func(m *Genome) { m.Keep[0] = !m.Keep[0] },
		"alloc":       func(m *Genome) { m.Alloc[0] = !m.Alloc[0] },
		"technique":   func(m *Genome) { m.Genes[0].Technique++ },
		"degree":      func(m *Genome) { m.Genes[0].K++ },
		"map":         func(m *Genome) { m.Genes[0].Map += 256 },
		"voter":       func(m *Genome) { m.Genes[0].VoterMap += 256 },
		"replica-map": func(m *Genome) { m.Genes[0].ReplicaMap[0] += 256 },
	}
	for name, mutate := range mutants {
		c := g.Clone()
		mutate(c)
		if g.Key128() == c.Key128() {
			t.Errorf("%s change must alter the key", name)
		}
	}
	if g.String() == "" {
		t.Error("empty String()")
	}
}

func TestDecodeProducesValidPhenotype(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := p.RandomGenome(rng)
		p.Repair(g, rng)
		ph, err := p.Decode(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every transformed task mapped to an allocated processor.
		for _, tg := range ph.Manifest.Apps.Graphs {
			for _, task := range tg.Tasks {
				pid, ok := ph.Mapping[task.ID]
				if !ok {
					t.Fatalf("trial %d: task %q unmapped", trial, task.ID)
				}
				if !ph.Alloc[pid] {
					t.Fatalf("trial %d: task %q on unallocated proc %d", trial, task.ID, pid)
				}
			}
		}
		// Replicas of one task on pairwise distinct processors.
		for orig, ids := range ph.Manifest.Instances {
			if len(ids) < 2 {
				continue
			}
			seen := map[model.ProcID]bool{}
			for _, id := range ids {
				if seen[ph.Mapping[id]] {
					t.Fatalf("trial %d: replicas of %q share processor", trial, orig)
				}
				seen[ph.Mapping[id]] = true
			}
		}
		// Compiles.
		if _, err := p.Compile(ph); err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		// Service accounting consistent with the drop set.
		var want float64
		for i, name := range p.DroppableNames() {
			if g.Keep[i] {
				want += p.Apps.Graph(name).Service
			} else if !ph.Dropped[name] {
				t.Fatalf("trial %d: dropped set inconsistent", trial)
			}
		}
		if ph.Service != want {
			t.Fatalf("trial %d: service %v != %v", trial, ph.Service, want)
		}
	}
}

func TestRepairFixesReliability(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(3))
	// A genome with no hardening at all: violates the crit constraint.
	g := p.RandomGenome(rng)
	for i := range g.Genes {
		g.Genes[i].Technique = hardening.None
		g.Genes[i].K = 0
		g.Genes[i].Replicas = 0
	}
	ok := p.Repair(g, rng)
	if !ok {
		t.Fatal("repair failed on an easily fixable genome")
	}
	ph, err := p.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	as, err := reliability.Assess(p.Arch, ph.Manifest, ph.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if !as.OK() {
		t.Errorf("repair left violations: %v", as.Violations)
	}
}

func TestRepairAllocatesWhenEmpty(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(3))
	g := p.RandomGenome(rng)
	for i := range g.Alloc {
		g.Alloc[i] = false
	}
	p.Repair(g, rng)
	any := false
	for _, on := range g.Alloc {
		any = any || on
	}
	if !any {
		t.Error("repair left no processor allocated")
	}
}

func TestCrossoverMixesParents(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(5))
	a := p.RandomGenome(rng)
	b := p.RandomGenome(rng)
	child := p.Crossover(a, b, rng)
	if len(child.Genes) != len(a.Genes) || len(child.Alloc) != len(a.Alloc) {
		t.Fatal("child has wrong shape")
	}
	// Mutating the child must not touch the parents.
	child.Genes[0].Map = 99
	if a.Genes[0].Map == 99 || b.Genes[0].Map == 99 {
		t.Error("crossover aliases parent genes")
	}
}

func TestMutateKeepsParametersValid(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(11))
	g := p.RandomGenome(rng)
	for i := 0; i < 200; i++ {
		p.Mutate(g, 0.5, rng)
	}
	for i := range g.Genes {
		switch g.Genes[i].Technique {
		case hardening.ReExecution:
			if g.Genes[i].K < 1 || g.Genes[i].K > p.MaxK {
				t.Fatalf("K out of range: %d", g.Genes[i].K)
			}
		case hardening.ActiveReplication:
			if g.Genes[i].Replicas < 2 || g.Genes[i].Replicas > p.MaxReplicas {
				t.Fatalf("Replicas out of range: %d", g.Genes[i].Replicas)
			}
		}
	}
}

func TestDominance(t *testing.T) {
	a := Objectives{1, 2}
	b := Objectives{2, 3}
	c := Objectives{1, 3}
	if !a.Dominates(b) || !a.Dominates(c) {
		t.Error("dominance false negatives")
	}
	if b.Dominates(a) || a.Dominates(a) {
		t.Error("dominance false positives")
	}
}

func mkInd(power, service float64) *Individual {
	return &Individual{Objectives: Objectives{power, -service}, Power: power, Service: service, Feasible: true}
}

func TestSPEA2SelectKeepsNonDominated(t *testing.T) {
	union := []*Individual{
		mkInd(1, 1), mkInd(2, 2), mkInd(3, 3), // a front
		mkInd(3, 1), mkInd(4, 2), // dominated
	}
	sel := SPEA2{}
	next := sel.Select(union, 3)
	if len(next) != 3 {
		t.Fatalf("archive size %d", len(next))
	}
	for _, ind := range next {
		if ind.Power == 3 && ind.Service == 1 {
			t.Error("dominated point kept over front points")
		}
	}
}

func TestSPEA2TruncationPreservesExtremes(t *testing.T) {
	// Five front points; truncation to 3 should keep the extremes
	// (they have the largest nearest-neighbour distances).
	union := []*Individual{
		mkInd(1, 1), mkInd(1.1, 1.2), mkInd(1.2, 1.4), mkInd(3, 5), mkInd(5, 9),
	}
	next := SPEA2{}.Select(union, 3)
	hasMin, hasMax := false, false
	for _, ind := range next {
		if ind.Power == 1 {
			hasMin = true
		}
		if ind.Power == 5 {
			hasMax = true
		}
	}
	if !hasMin || !hasMax {
		t.Errorf("extremes lost in truncation")
	}
}

func TestSPEA2FillsWithDominated(t *testing.T) {
	union := []*Individual{mkInd(1, 1), mkInd(2, 1), mkInd(3, 1)}
	next := SPEA2{}.Select(union, 3)
	if len(next) != 3 {
		t.Fatalf("archive size %d, want filled to 3", len(next))
	}
}

func TestElitistSelector(t *testing.T) {
	union := []*Individual{mkInd(3, 1), mkInd(1, 1), mkInd(2, 1)}
	next := Elitist{}.Select(union, 2)
	if len(next) != 2 || next[0].Power != 1 || next[1].Power != 2 {
		t.Errorf("elitist selection wrong: %v", next)
	}
	rng := rand.New(rand.NewSource(1))
	parents := Elitist{}.Parents(next, 4, rng)
	if len(parents) != 4 {
		t.Error("parents count wrong")
	}
}

func TestOptimizeFindsFeasible(t *testing.T) {
	p := tinyProblem(t)
	res, err := Optimize(p, Options{PopSize: 16, Generations: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible design found on an easy instance")
	}
	if res.Best.Power <= 0 || res.Best.Power > 100 {
		t.Errorf("implausible power %v", res.Best.Power)
	}
	if res.Stats.Evaluated != 16*11 {
		t.Errorf("evaluated = %d, want %d", res.Stats.Evaluated, 16*11)
	}
	if len(res.History) != 11 {
		t.Errorf("history length %d", len(res.History))
	}
	// Front members are mutually non-dominated and feasible.
	for _, a := range res.Front {
		if !a.Feasible {
			t.Error("infeasible individual on the front")
		}
		for _, b := range res.Front {
			if a != b && b.Objectives.Dominates(a.Objectives) {
				t.Error("dominated individual on the front")
			}
		}
	}
}

func TestOptimizeDeterminism(t *testing.T) {
	p := tinyProblem(t)
	r1, err := Optimize(p, Options{PopSize: 12, Generations: 6, Seed: 42, TrackDroppingGain: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(p, Options{PopSize: 12, Generations: 6, Seed: 42, TrackDroppingGain: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Feasible != r2.Stats.Feasible ||
		r1.Stats.Evaluated != r2.Stats.Evaluated ||
		r1.Stats.RescuedByDropping != r2.Stats.RescuedByDropping {
		t.Error("same seed produced different stats")
	}
	if (r1.Best == nil) != (r2.Best == nil) {
		t.Fatal("best feasibility differs")
	}
	if r1.Best != nil && r1.Best.Power != r2.Best.Power {
		t.Errorf("best power differs: %v vs %v", r1.Best.Power, r2.Best.Power)
	}
}

func TestDisableDroppingForcesKeepAll(t *testing.T) {
	p := tinyProblem(t)
	res, err := Optimize(p, Options{PopSize: 12, Generations: 6, Seed: 1, DisableDropping: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil && len(res.Best.Dropped) != 0 {
		t.Errorf("dropping disabled but best drops %v", res.Best.Dropped)
	}
}

func TestStatsAccessors(t *testing.T) {
	s := Stats{Evaluated: 200, RescuedByDropping: 50,
		TechniqueCounts: map[hardening.Technique]int{
			hardening.ReExecution:       75,
			hardening.ActiveReplication: 25,
		}}
	if s.RescueRatio() != 0.25 {
		t.Errorf("RescueRatio = %v", s.RescueRatio())
	}
	if s.ReExecutionShare() != 0.75 {
		t.Errorf("ReExecutionShare = %v", s.ReExecutionShare())
	}
	var empty Stats
	if empty.RescueRatio() != 0 || empty.ReExecutionShare() != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestSeedGenomesAreWellFormed(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(1))
	for i, g := range p.SeedGenomes() {
		p.Repair(g, rng)
		if _, err := p.Decode(g); err != nil {
			t.Errorf("seed %d: %v", i, err)
		}
	}
}

func TestEvaluatePenalizesInfeasible(t *testing.T) {
	p := tinyProblem(t)
	rng := rand.New(rand.NewSource(2))
	// Force everything onto one processor with maximal hardening: the
	// deadline cannot hold.
	g := p.RandomGenome(rng)
	for i := range g.Alloc {
		g.Alloc[i] = i == 0
	}
	for i := range g.Genes {
		g.Genes[i] = TaskGene{
			Technique:  hardening.ReExecution,
			K:          p.MaxK,
			Map:        0,
			VoterMap:   0,
			ReplicaMap: make([]model.ProcID, p.MaxReplicas),
		}
	}
	ind, err := p.Evaluate(g, false)
	if err != nil {
		t.Fatal(err)
	}
	if ind.Feasible {
		t.Fatal("expected infeasible")
	}
	if ind.Objectives[0] < infeasiblePenalty {
		t.Errorf("penalty objective %v below threshold", ind.Objectives[0])
	}
}

func TestRepairRespectsAllowedTypes(t *testing.T) {
	arch := &model.Architecture{
		Name: "hetero",
		Procs: []model.Processor{
			{ID: 0, Name: "r0", Type: "risc", StaticPower: 0.1, DynPower: 1, FaultRate: 1e-9},
			{ID: 1, Name: "d0", Type: "dsp", StaticPower: 0.1, DynPower: 1, FaultRate: 1e-9},
			{ID: 2, Name: "d1", Type: "dsp", StaticPower: 0.1, DynPower: 1, FaultRate: 1e-9},
		},
	}
	ms := model.Millisecond
	g := model.NewTaskGraph("g", 100*ms).SetCritical(1e-3)
	fir := g.AddTask("fir", 1*ms, 2*ms, 0, 0)
	fir.AllowedTypes = []string{"dsp"}
	g.AddTask("ctl", 1*ms, 2*ms, 0, 0)
	p, err := NewProblem(arch, model.NewAppSet(g))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		gen := p.RandomGenome(rng)
		// Ensure the dsp processors can be chosen.
		gen.Alloc[1] = true
		p.Repair(gen, rng)
		ph, err := p.Decode(gen)
		if err != nil {
			t.Fatal(err)
		}
		// Every instance implementing fir (itself or its replicas) must
		// sit on a dsp processor.
		for _, id := range ph.Manifest.InstancesOf("g/fir") {
			pid, ok := ph.Mapping[id]
			if !ok {
				t.Fatalf("trial %d: instance %q unmapped", trial, id)
			}
			if arch.Proc(pid).Type != "dsp" {
				t.Fatalf("trial %d: %q repaired onto %q", trial, id, arch.Proc(pid).Type)
			}
		}
	}
}

// TestCloneForIsolation pins cloneFor's sharing contract: the scalar
// fields the selectors mutate (Fitness) must be per-clone, while the
// immutable report views (GraphWCRT, Dropped — written only during
// evaluation) are shared with the original instead of deep-copied.
func TestCloneForIsolation(t *testing.T) {
	orig := &Individual{
		Power:     4.2,
		Fitness:   1,
		GraphWCRT: []model.Time{1, 2, 3},
		Dropped:   []string{"x"},
	}
	g := &Genome{}
	cl := orig.cloneFor(g)
	if cl.Genome != g {
		t.Fatal("clone not re-attributed")
	}
	cl.Fitness = 99
	if orig.Fitness != 1 {
		t.Fatalf("Fitness mutation leaked into the original: %+v", orig)
	}
	if &cl.GraphWCRT[0] != &orig.GraphWCRT[0] || &cl.Dropped[0] != &orig.Dropped[0] {
		t.Fatal("report views should be shared, not copied")
	}
}
