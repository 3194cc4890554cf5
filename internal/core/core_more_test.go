package core

import (
	"math/rand"
	"testing"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/sched"
)

// TestKeptDroppableMustSurviveCriticalMode exercises the feasibility
// semantics: a droppable application that is NOT in T_d must hold its
// deadline through fault scenarios; putting it into T_d waives that
// obligation.
func TestKeptDroppableMustSurviveCriticalMode(t *testing.T) {
	crit := model.NewTaskGraph("crit", 100).SetCritical(1e-9)
	a := crit.AddTask("a", 30, 30, 0, 2)
	a.ReExec = 1
	// The soft app shares the processor and ranks below crit (same
	// period, droppable tie-break): the Eq. 1 inflation lands on it.
	soft := model.NewTaskGraph("soft", 100).SetService(2)
	soft.AddTask("s", 30, 30, 0, 0)
	sys := compile(t, arch(1), model.NewAppSet(crit, soft), model.Mapping{"crit/a": 0, "soft/s": 0})

	kept, err := Analyze(sys, DropSet{}, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	droppedRep, err := Analyze(sys, DropSet{"soft": true}, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Normal state: a [0,32], s [32,62] — fine either way.
	if !kept.NormalOK || !droppedRep.NormalOK {
		t.Fatalf("normal state should hold: kept=%v dropped=%v", kept.NormalOK, droppedRep.NormalOK)
	}
	// Critical scenario: a inflates to 64; kept soft finishes at 94 <=
	// 100... compute exact: scenario has soft at [0,30] transition? soft
	// IS kept here so it gets critical bounds [30,30]; a [32,64]; soft
	// [64,94] <= 100 -> kept is feasible; tighten the deadline to split.
	_ = kept
	soft2 := model.NewTaskGraph("soft", 100).SetService(2)
	soft2.Deadline = 80
	soft2.AddTask("s", 30, 30, 0, 0)
	sys2 := compile(t, arch(1), model.NewAppSet(crit, soft2), model.Mapping{"crit/a": 0, "soft/s": 0})
	kept2, err := Analyze(sys2, DropSet{}, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	dropped2, err := Analyze(sys2, DropSet{"soft": true}, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if kept2.Feasible() {
		t.Errorf("kept droppable missing its deadline in critical mode must be infeasible (wcrt=%v)", kept2.WCRTOf("soft"))
	}
	if !dropped2.Feasible() {
		t.Errorf("dropping the soft app should restore feasibility (crit wcrt=%v)", dropped2.WCRTOf("crit"))
	}
}

// TestTaskWCRTDominatesNormal: the per-task maxima cover the fault-free
// pass.
func TestTaskWCRTDominatesNormal(t *testing.T) {
	sys, dropped := figure1ish(t)
	rep, err := Analyze(sys, dropped, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range sys.Nodes {
		if rep.TaskWCRT[i] < rep.Normal.Bounds[i].MaxFinish {
			t.Errorf("node %d: TaskWCRT %v below normal %v", i, rep.TaskWCRT[i], rep.Normal.Bounds[i].MaxFinish)
		}
	}
}

// TestScenarioWindowsAreOrdered: for feasible systems every scenario
// window satisfies WindowLo <= WindowHi.
func TestScenarioWindowsAreOrdered(t *testing.T) {
	sys, dropped := figure1ish(t)
	rep, err := Analyze(sys, dropped, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range rep.Scenarios {
		if sc.Scenario.WindowLo > sc.Scenario.WindowHi {
			t.Errorf("trigger %d: window [%v,%v] inverted",
				sc.Scenario.Trigger, sc.Scenario.WindowLo, sc.Scenario.WindowHi)
		}
	}
}

// TestDedupEquivalenceRandom: deduplication never changes the computed
// WCRTs, across random hardened systems.
func TestDedupEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		sys, dropped := randomHardenedSystem(t, rng)
		a, err := Analyze(sys, dropped, NewConfig())
		if err != nil {
			t.Fatal(err)
		}
		exact, runs := analyzeEveryTrigger(t, sys, dropped)
		for gi := range a.GraphWCRT {
			if a.GraphWCRT[gi] != exact[gi] {
				t.Fatalf("trial %d graph %d: dedup %v vs exact %v", trial, gi, a.GraphWCRT[gi], exact[gi])
			}
		}
		if a.ScenariosAnalyzed > runs {
			t.Fatalf("trial %d: dedup ran more analyses", trial)
		}
	}
}

// analyzeEveryTrigger is Algorithm 1 without deduplication: the
// fault-free pass and one holistic-backend run per trigger job, folded
// into per-graph maxima. It returns the graph WCRTs and the number of
// backend runs.
func analyzeEveryTrigger(t *testing.T, sys *platform.System, dropped DropSet) ([]model.Time, int) {
	t.Helper()
	an := &sched.Holistic{}
	normal, err := an.Analyze(sys, NormalExec(sys))
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Sys: sys, GraphWCRT: make([]model.Time, len(sys.Apps.Graphs)), TaskWCRT: make([]model.Time, len(sys.Nodes))}
	accumulate(rep, normal)
	runs := 1
	if diverged(normal) {
		for gi := range rep.GraphWCRT {
			rep.GraphWCRT[gi] = model.Infinity
		}
		return rep.GraphWCRT, runs
	}
	for _, v := range sys.Nodes {
		if !isTrigger(v) {
			continue
		}
		sc := Scenario{Trigger: v.ID, WindowLo: normal.Bounds[v.ID].MinStart, WindowHi: normal.Bounds[v.ID].MaxFinish}
		res, err := an.Analyze(sys, ScenarioExec(sys, dropped, normal, sc))
		if err != nil {
			t.Fatal(err)
		}
		accumulate(rep, res)
		runs++
	}
	return rep.GraphWCRT, runs
}

// randomHardenedSystem builds a small random hardened instance for core
// property tests.
func randomHardenedSystem(t *testing.T, rng *rand.Rand) (*platform.System, DropSet) {
	t.Helper()
	a := arch(2 + rng.Intn(2))
	nGraphs := 2 + rng.Intn(2)
	var graphs []*model.TaskGraph
	plan := hardening.Plan{}
	dropped := DropSet{}
	for gi := 0; gi < nGraphs; gi++ {
		name := "g" + string(rune('0'+gi))
		g := model.NewTaskGraph(name, 1000)
		if gi > 0 && rng.Intn(2) == 0 {
			g.SetService(1)
			if rng.Intn(2) == 0 {
				dropped[name] = true
			}
		} else {
			g.SetCritical(1e-3)
		}
		n := 2 + rng.Intn(3)
		names := make([]string, n)
		for i := 0; i < n; i++ {
			names[i] = "t" + string(rune('0'+i))
			w := model.Time(10 + rng.Intn(50))
			g.AddTask(names[i], w/2, w, model.Time(1+rng.Intn(3)), model.Time(1+rng.Intn(3)))
		}
		for i := 1; i < n; i++ {
			g.AddChannel(names[rng.Intn(i)], names[i], int64(rng.Intn(64)))
		}
		if !g.Droppable() {
			for _, task := range g.Tasks {
				switch rng.Intn(3) {
				case 0:
					plan[task.ID] = hardening.Decision{Technique: hardening.ReExecution, K: 1 + rng.Intn(2)}
				case 1:
					plan[task.ID] = hardening.Decision{Technique: hardening.PassiveReplication, Replicas: 3}
				}
			}
		}
		graphs = append(graphs, g)
	}
	man, err := hardening.Apply(model.NewAppSet(graphs...), plan)
	if err != nil {
		t.Fatal(err)
	}
	mapping := model.Mapping{}
	for _, g := range man.Apps.Graphs {
		for _, task := range g.Tasks {
			mapping[task.ID] = model.ProcID(rng.Intn(len(a.Procs)))
		}
	}
	sys := compile(t, a, man.Apps, mapping)
	return sys, dropped
}

func TestExplainIdentifiesBindingScenario(t *testing.T) {
	sys, dropped := figure1ish(t)
	rep, err := Analyze(sys, dropped, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	// E's WCRT is bound by the scenario triggered by the re-executable A.
	bindings := rep.Explain("crit/E")
	if len(bindings) != 1 {
		t.Fatalf("bindings = %d", len(bindings))
	}
	b := bindings[0]
	if b.Trigger != "crit/A" {
		t.Errorf("binding trigger = %q, want crit/A", b.Trigger)
	}
	if b.WCRT != rep.TaskWCRT[sys.Node("crit/E").ID] {
		t.Errorf("binding WCRT %v != TaskWCRT", b.WCRT)
	}
	if b.WindowHi < b.WindowLo {
		t.Error("binding window inverted")
	}
	// An unknown task yields no bindings.
	if len(rep.Explain("nope")) != 0 {
		t.Error("unknown task explained")
	}
}
