package sim

import (
	"testing"

	"mcmap/internal/model"
	"mcmap/internal/sched"
)

// busSystem: two flows whose messages share the fabric.
func busSystem(t *testing.T, kind model.FabricKind) *RunResult {
	t.Helper()
	a := arch(4)
	a.Fabric = model.Fabric{Kind: kind, Bandwidth: 1, BaseLatency: 0}
	g1 := model.NewTaskGraph("g1", 1000).SetCritical(1e-9)
	g1.AddTask("a", 1, 1, 0, 0)
	g1.AddTask("b", 1, 1, 0, 0)
	g1.AddChannel("a", "b", 50)
	g2 := model.NewTaskGraph("g2", 1000).SetCritical(1e-9)
	g2.AddTask("c", 1, 1, 0, 0)
	g2.AddTask("d", 1, 1, 0, 0)
	g2.AddChannel("c", "d", 70)
	m := model.Mapping{"g1/a": 0, "g1/b": 1, "g2/c": 2, "g2/d": 3}
	sys := compile(t, a, model.NewAppSet(g1, g2), m)
	return mustRun(t, sys, Config{})
}

// TestBusSerializesMessages: both messages finish transmission at t=1;
// on the shared bus the lower-priority one waits for the other.
func TestBusSerializesMessages(t *testing.T) {
	ideal := busSystem(t, model.FabricIdeal)
	bus := busSystem(t, model.FabricSharedBus)
	xbar := busSystem(t, model.FabricCrossbar)
	// Ideal: g1 = 1+50+1 = 52; g2 = 1+70+1 = 72.
	if ideal.GraphWCRT[0] != 52 || ideal.GraphWCRT[1] != 72 {
		t.Fatalf("ideal = %v/%v", ideal.GraphWCRT[0], ideal.GraphWCRT[1])
	}
	// Shared bus: g1's message (higher priority: g1/a ranks above g2/c)
	// goes first; g2's message waits 50: g2 = 1+50+70+1 = 122.
	if bus.GraphWCRT[0] != 52 {
		t.Errorf("bus g1 = %v, want 52", bus.GraphWCRT[0])
	}
	if bus.GraphWCRT[1] != 122 {
		t.Errorf("bus g2 = %v, want 122 (serialized)", bus.GraphWCRT[1])
	}
	// Crossbar: distinct destinations, no contention.
	if xbar.GraphWCRT[0] != 52 || xbar.GraphWCRT[1] != 72 {
		t.Errorf("crossbar = %v/%v, want 52/72", xbar.GraphWCRT[0], xbar.GraphWCRT[1])
	}
}

// TestBusAnalysisBoundsBusSimulation: the arbitrated-fabric RTA of
// Holistic and of the Reference oracle dominates the arbitrated
// simulation on the same system. In the parallel cases a sends b two
// channels: they are queued one after the other and b waits for both, so
// alone b finishes at 1+10+20+1 = 32.
func TestBusAnalysisBoundsBusSimulation(t *testing.T) {
	for _, c := range []struct {
		name   string
		kind   model.FabricKind
		ab, cd []int64 // channel sizes a->b (g1) and c->d (g2, none: no g2)
		simG1  model.Time
	}{
		{"shared-bus", model.FabricSharedBus, []int64{50}, []int64{70}, 0},
		{"shared-bus/parallel", model.FabricSharedBus, []int64{10, 20}, nil, 32},
		{"shared-bus/parallel-competing", model.FabricSharedBus, []int64{10, 20}, []int64{15, 25}, 0},
		{"crossbar/parallel", model.FabricCrossbar, []int64{10, 20}, nil, 32},
		{"crossbar/parallel-competing", model.FabricCrossbar, []int64{10, 20}, []int64{15, 25}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := arch(4)
			a.Fabric = model.Fabric{Kind: c.kind, Bandwidth: 1, BaseLatency: 0}
			g1 := model.NewTaskGraph("g1", 1000).SetCritical(1e-9)
			g1.AddTask("a", 1, 1, 0, 0)
			g1.AddTask("b", 1, 1, 0, 0)
			for _, size := range c.ab {
				g1.AddChannel("a", "b", size)
			}
			apps := model.NewAppSet(g1)
			m := model.Mapping{"g1/a": 0, "g1/b": 1}
			if len(c.cd) > 0 {
				g2 := model.NewTaskGraph("g2", 1000).SetCritical(1e-9)
				g2.AddTask("c", 1, 1, 0, 0)
				g2.AddTask("d", 1, 1, 0, 0)
				for _, size := range c.cd {
					g2.AddChannel("c", "d", size)
				}
				apps = model.NewAppSet(g1, g2)
				m["g2/c"], m["g2/d"] = 2, 3
			}
			sys := compile(t, a, apps, m)
			run := mustRun(t, sys, Config{})
			if c.simG1 != 0 && run.GraphWCRT[0] != c.simG1 {
				t.Fatalf("simulated g1 = %v, want %v", run.GraphWCRT[0], c.simG1)
			}
			for _, an := range []sched.Analyzer{&sched.Holistic{}, sched.Reference{}} {
				res, err := an.Analyze(sys, sched.NominalExec(sys))
				if err != nil {
					t.Fatal(err)
				}
				for gi := range run.GraphWCRT {
					// Graph response vs analyzed sink bound.
					var bound model.Time
					for _, nid := range sys.GraphNodes[gi] {
						if len(sys.Nodes[nid].Out) == 0 && res.Bounds[nid].MaxFinish > bound {
							bound = res.Bounds[nid].MaxFinish
						}
					}
					if run.GraphWCRT[gi] > bound {
						t.Errorf("%s: graph %d simulated %v exceeds bus bound %v", an.Name(), gi, run.GraphWCRT[gi], bound)
					}
				}
			}
		})
	}
}
