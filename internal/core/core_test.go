package core

import (
	"testing"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
)

func arch(n int) *model.Architecture {
	a := &model.Architecture{Name: "test", Fabric: model.Fabric{Bandwidth: 1, BaseLatency: 0}}
	for i := 0; i < n; i++ {
		a.Procs = append(a.Procs, model.Processor{
			ID: model.ProcID(i), Name: "p" + string(rune('0'+i)),
			StaticPower: 0.1, DynPower: 1, FaultRate: 1e-9,
		})
	}
	return a
}

func compile(t *testing.T, a *model.Architecture, apps *model.AppSet, m model.Mapping) *platform.System {
	t.Helper()
	sys, err := platform.Compile(a, apps, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// figure1ish builds a miniature of the paper's Figure 1: one critical
// graph with a re-executable task and one droppable graph sharing a
// processor.
func figure1ish(t *testing.T) (*platform.System, DropSet) {
	t.Helper()
	crit := model.NewTaskGraph("crit", 100).SetCritical(1e-9)
	crit.AddTask("A", 10, 10, 0, 2)
	crit.AddTask("E", 5, 5, 0, 0)
	crit.AddChannel("A", "E", 0)
	man, err := hardening.Apply(model.NewAppSet(crit), hardening.Plan{
		"crit/A": {Technique: hardening.ReExecution, K: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo := model.NewTaskGraph("lo", 100).SetService(3)
	lo.AddTask("G", 8, 8, 0, 0)
	apps := model.NewAppSet(man.Apps.Graphs[0], lo)
	sys := compile(t, arch(1), apps, model.Mapping{"crit/A": 0, "crit/E": 0, "lo/G": 0})
	return sys, DropSet{"lo": true}
}

func TestDropSetValidate(t *testing.T) {
	sys, _ := figure1ish(t)
	if err := (DropSet{"lo": true}).Validate(sys.Apps); err != nil {
		t.Error(err)
	}
	if err := (DropSet{"crit": true}).Validate(sys.Apps); err == nil {
		t.Error("non-droppable graph accepted in drop set")
	}
	if err := (DropSet{"ghost": true}).Validate(sys.Apps); err == nil {
		t.Error("unknown graph accepted in drop set")
	}
}

func TestNormalExecZeroesPassives(t *testing.T) {
	g := model.NewTaskGraph("g", 100).SetCritical(1e-9)
	g.AddTask("v", 10, 10, 5, 0)
	man, err := hardening.Apply(model.NewAppSet(g), hardening.Plan{
		"g/v": {Technique: hardening.PassiveReplication, Replicas: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := model.Mapping{"g/v#r0": 0, "g/v#r1": 1, "g/v#r2": 2, "g/v#v": 0, "g/v#d": 0}
	sys := compile(t, arch(3), man.Apps, m)
	exec := NormalExec(sys)
	for i, n := range sys.Nodes {
		if n.Task.Passive {
			if exec[i].B != 0 || exec[i].W != 0 {
				t.Errorf("passive replica not zeroed: %+v", exec[i])
			}
		} else if exec[i].W == 0 && n.WCET > 0 {
			t.Errorf("non-passive node zeroed: %v", n.Task.ID)
		}
	}
}

func TestAnalyzeBasicReport(t *testing.T) {
	sys, dropped := figure1ish(t)
	rep, err := Analyze(sys, dropped, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible() {
		t.Errorf("expected feasible: normalOK=%v criticalOK=%v wcrt=%v",
			rep.NormalOK, rep.CriticalOK, rep.GraphWCRT)
	}
	// The trigger (crit/A) produces at least one scenario.
	if len(rep.Scenarios) == 0 {
		t.Fatal("no scenarios analyzed")
	}
	// Scenario WCRT exceeds the normal-state WCRT (re-execution hurts).
	gi := sys.GraphIndex("crit")
	var normalWorst model.Time
	for _, nid := range sys.GraphNodes[gi] {
		if len(sys.Nodes[nid].Out) == 0 && rep.Normal.Bounds[nid].MaxFinish > normalWorst {
			normalWorst = rep.Normal.Bounds[nid].MaxFinish
		}
	}
	if rep.GraphWCRT[gi] <= normalWorst {
		t.Errorf("critical WCRT %d should exceed normal %d", rep.GraphWCRT[gi], normalWorst)
	}
	if rep.WCRTOf("crit") != rep.GraphWCRT[gi] {
		t.Error("WCRTOf mismatch")
	}
	if rep.WCRTOf("ghost") != model.Infinity {
		t.Error("WCRTOf(ghost) should be infinite")
	}
}

func TestScenarioClassification(t *testing.T) {
	// Three tasks on separate processors so windows are clean:
	// w1 finishes well before the trigger's window (normal state);
	// w2 starts well after it (certainly dropped).
	crit := model.NewTaskGraph("crit", 1000).SetCritical(1e-9)
	pre := crit.AddTask("pre", 50, 50, 0, 0) // delays the trigger
	_ = pre
	v := crit.AddTask("v", 10, 10, 0, 2)
	v.ReExec = 1
	crit.AddChannel("pre", "v", 0)

	early := model.NewTaskGraph("early", 1000).SetService(1)
	early.AddTask("w1", 5, 5, 0, 0)

	late := model.NewTaskGraph("late", 1000).SetService(1)
	late.AddTask("slow", 500, 500, 0, 0)
	late.AddTask("w2", 5, 5, 0, 0)
	late.AddChannel("slow", "w2", 0)

	apps := model.NewAppSet(crit, early, late)
	m := model.Mapping{
		"crit/pre": 0, "crit/v": 0,
		"early/w1":  1,
		"late/slow": 2, "late/w2": 2,
	}
	sys := compile(t, arch(3), apps, m)
	dropped := DropSet{"early": true, "late": true}

	rep, err := Analyze(sys, dropped, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scenarios) != 1 {
		t.Fatalf("expected 1 scenario, got %d", len(rep.Scenarios))
	}
	sc := rep.Scenarios[0]
	if sys.Nodes[sc.Scenario.Trigger].Task.ID != "crit/v" {
		t.Fatalf("trigger = %v", sys.Nodes[sc.Scenario.Trigger].Task.ID)
	}
	// w1: maxFinish 5 < trigger minStart 50+... -> normal bounds kept.
	w1 := sys.Node("early/w1").ID
	if sc.Exec[w1].B != 5 || sc.Exec[w1].W != 5 {
		t.Errorf("w1 bounds = %+v, want [5,5] (normal)", sc.Exec[w1])
	}
	// w2: minStart 500 > trigger maxFinish (~74) -> certainly dropped.
	w2 := sys.Node("late/w2").ID
	if sc.Exec[w2].B != 0 || sc.Exec[w2].W != 0 {
		t.Errorf("w2 bounds = %+v, want [0,0] (dropped)", sc.Exec[w2])
	}
	// slow overlaps the window -> transition [0, wcet].
	slow := sys.Node("late/slow").ID
	if sc.Exec[slow].B != 0 || sc.Exec[slow].W != 500 {
		t.Errorf("slow bounds = %+v, want [0,500] (transition)", sc.Exec[slow])
	}
	// The trigger itself gets Eq. (1).
	vid := sys.Node("crit/v").ID
	if sc.Exec[vid].W != 24 { // (10+2)*2
		t.Errorf("trigger wcet = %d, want 24", sc.Exec[vid].W)
	}
	// pre finished before the fault (it precedes v): normal bounds.
	pid := sys.Node("crit/pre").ID
	if sc.Exec[pid].W != 50 {
		t.Errorf("pre wcet = %d, want 50 (normal)", sc.Exec[pid].W)
	}
}

func TestNonDroppedCriticalInflation(t *testing.T) {
	// A second critical graph overlapping the trigger window must get the
	// Eq. (1) inflation in scenarios.
	c1 := model.NewTaskGraph("c1", 1000).SetCritical(1e-9)
	v := c1.AddTask("v", 10, 10, 0, 2)
	v.ReExec = 1
	c2 := model.NewTaskGraph("c2", 1000).SetCritical(1e-9)
	w := c2.AddTask("w", 10, 20, 0, 4)
	w.ReExec = 2
	apps := model.NewAppSet(c1, c2)
	sys := compile(t, arch(2), apps, model.Mapping{"c1/v": 0, "c2/w": 1})
	rep, err := Analyze(sys, DropSet{}, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Find the scenario triggered by v; w overlaps (both start at 0).
	found := false
	for _, sc := range rep.Scenarios {
		if sys.Nodes[sc.Scenario.Trigger].Task.ID != "c1/v" {
			continue
		}
		found = true
		wid := sys.Node("c2/w").ID
		if sc.Exec[wid].W != (20+4)*3 {
			t.Errorf("w wcet = %d, want 72 (Eq. 1)", sc.Exec[wid].W)
		}
	}
	if !found {
		t.Fatal("no scenario for c1/v")
	}
}

func TestNaiveDominatesProposed(t *testing.T) {
	sys, dropped := figure1ish(t)
	prop, err := Proposed{Config: NewConfig()}.GraphWCRTs(sys, dropped)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Naive{}.GraphWCRTs(sys, dropped)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range prop {
		if naive[gi] < prop[gi] {
			t.Errorf("graph %d: naive %d < proposed %d", gi, naive[gi], prop[gi])
		}
	}
}

func TestDedupReducesBackendCalls(t *testing.T) {
	// Two re-executable tasks with overlapping fault windows produce the
	// same scenario classification (both are inflated to Eq. 1 in each
	// other's scenario), so the second backend run is deduplicated.
	crit := model.NewTaskGraph("crit", 100).SetCritical(1e-9)
	v1 := crit.AddTask("v1", 10, 10, 0, 1)
	v1.ReExec = 1
	v2 := crit.AddTask("v2", 10, 10, 0, 1)
	v2.ReExec = 1
	apps := model.NewAppSet(crit)
	sys := compile(t, arch(2), apps, model.Mapping{"crit/v1": 0, "crit/v2": 1})
	rep, err := Analyze(sys, DropSet{}, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScenariosDeduped == 0 {
		t.Error("expected deduplication of symmetric trigger scenarios")
	}
	// And dedup must not change the result.
	exact, runs := analyzeEveryTrigger(t, sys, DropSet{})
	if rep.ScenariosAnalyzed >= runs {
		t.Errorf("dedup ran %d backend analyses, every trigger takes %d", rep.ScenariosAnalyzed, runs)
	}
	for gi := range rep.GraphWCRT {
		if rep.GraphWCRT[gi] != exact[gi] {
			t.Errorf("dedup changed WCRT of graph %d: %d vs %d", gi, rep.GraphWCRT[gi], exact[gi])
		}
	}
}

func TestUnschedulableNormalState(t *testing.T) {
	g := model.NewTaskGraph("g", 10).SetCritical(1e-9)
	g.AddTask("a", 6, 6, 0, 0)
	g2 := model.NewTaskGraph("h", 10).SetCritical(1e-9)
	g2.AddTask("b", 6, 6, 0, 0)
	sys := compile(t, arch(1), model.NewAppSet(g, g2), model.Mapping{"g/a": 0, "h/b": 0})
	rep, err := Analyze(sys, DropSet{}, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible() || rep.NormalOK {
		t.Error("overloaded system reported feasible")
	}
	// The lower-priority graph busts its 10-unit deadline: 6 + 6 = 12.
	if got := rep.WCRTOf("h"); got != 12 {
		t.Errorf("WCRT(h) = %v, want 12", got)
	}
}

func TestDroppingRescuesFeasibility(t *testing.T) {
	// The motivating property (Figure 1): infeasible without dropping,
	// feasible with dropping. The droppable graph has the shorter period,
	// so it outranks the critical tasks under the rate-first policy; its
	// second job collides with the fault-extended critical work unless it
	// is dropped.
	crit := model.NewTaskGraph("crit", 100).SetCritical(1e-9)
	a := crit.AddTask("A", 30, 30, 0, 2)
	a.ReExec = 1
	crit.AddTask("E", 10, 10, 0, 0)
	crit.AddChannel("A", "E", 0)
	crit.Deadline = 90
	lo := model.NewTaskGraph("lo", 50).SetService(3)
	lo.AddTask("G", 12, 12, 0, 0)
	apps := model.NewAppSet(crit, lo)
	sys := compile(t, arch(1), apps, model.Mapping{"crit/A": 0, "crit/E": 0, "lo/G": 0})

	with, err := Analyze(sys, DropSet{"lo": true}, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	without, err := Analyze(sys, DropSet{}, NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !with.Feasible() {
		t.Errorf("dropping enabled should be feasible (wcrt=%v)", with.WCRTOf("crit"))
	}
	if without.Feasible() {
		t.Errorf("no dropping should be infeasible (wcrt=%v)", without.WCRTOf("crit"))
	}
	if !(with.WCRTOf("crit") < without.WCRTOf("crit")) {
		t.Errorf("dropping did not reduce WCRT: %v vs %v", with.WCRTOf("crit"), without.WCRTOf("crit"))
	}
}

func TestEstimatorNames(t *testing.T) {
	if (Proposed{}).Name() != "Proposed" || (Naive{}).Name() != "Naive" {
		t.Error("estimator names wrong")
	}
}
