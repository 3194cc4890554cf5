package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcmap/internal/core"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/sched"
)

// systemShape widens randomSystem's message draws.
type systemShape struct {
	// maxMsg is the exclusive upper bound of a message size in bytes.
	maxMsg int
	// twinChannels gives half of the channels, drawn at random, a
	// parallel twin of the same size between the same two tasks.
	twinChannels bool
}

var (
	// baseShape is randomSystem's own shape: messages under 64 bytes, no
	// parallel channels.
	baseShape = systemShape{maxMsg: 64}
	// wideShape draws messages up to 255 bytes and doubles half of the
	// channels.
	wideShape = systemShape{maxMsg: 256, twinChannels: true}
)

// randomSystem builds a random mixed-criticality problem instance:
// layered DAG graphs with random timing, random hardening on critical
// tasks and a random mapping. Returns the compiled system and drop set.
func randomSystem(t *testing.T, rng *rand.Rand) (*platform.System, core.DropSet) {
	return randomShapedSystem(t, rng, baseShape)
}

// randomShapedSystem is randomSystem with the given message shape. On
// baseShape it draws exactly randomSystem's random numbers.
func randomShapedSystem(t *testing.T, rng *rand.Rand, shape systemShape) (*platform.System, core.DropSet) {
	t.Helper()
	nProcs := 2 + rng.Intn(2)
	kinds := []model.FabricKind{model.FabricIdeal, model.FabricSharedBus, model.FabricCrossbar, model.FabricMesh}
	a := &model.Architecture{Name: "rnd", Fabric: model.Fabric{
		Kind: kinds[rng.Intn(len(kinds))], Bandwidth: 4, BaseLatency: 2,
	}}
	for i := 0; i < nProcs; i++ {
		a.Procs = append(a.Procs, model.Processor{
			ID: model.ProcID(i), Name: fmt.Sprintf("p%d", i),
			StaticPower: 0.1, DynPower: 1, FaultRate: 1e-7,
			// A third of the processors schedule non-preemptively, so the
			// soundness property also covers the blocking-term analysis.
			NonPreemptive: rng.Intn(3) == 0,
		})
	}

	nGraphs := 2 + rng.Intn(2)
	periods := []model.Time{1000, 2000}
	var graphs []*model.TaskGraph
	plan := hardening.Plan{}
	dropped := core.DropSet{}
	for gi := 0; gi < nGraphs; gi++ {
		name := fmt.Sprintf("g%d", gi)
		g := model.NewTaskGraph(name, periods[rng.Intn(len(periods))])
		droppable := gi > 0 && rng.Intn(2) == 0
		if droppable {
			g.SetService(float64(1 + rng.Intn(5)))
			if rng.Intn(3) > 0 {
				dropped[name] = true
			}
		} else {
			g.SetCritical(1e-3) // loose, reliability not under test here
		}
		nTasks := 2 + rng.Intn(4)
		var names []string
		for ti := 0; ti < nTasks; ti++ {
			tn := fmt.Sprintf("t%d", ti)
			w := model.Time(10 + rng.Intn(60))
			b := w - model.Time(rng.Intn(int(w/2)+1))
			g.AddTask(tn, b, w, model.Time(1+rng.Intn(5)), model.Time(1+rng.Intn(5)))
			names = append(names, tn)
		}
		for i := 0; i < nTasks; i++ {
			for j := i + 1; j < nTasks; j++ {
				if rng.Float64() < 0.35 {
					size := int64(rng.Intn(shape.maxMsg))
					g.AddChannel(names[i], names[j], size)
					if shape.twinChannels && rng.Intn(2) == 0 {
						g.AddChannel(names[i], names[j], size)
					}
				}
			}
		}
		// Harden some critical tasks.
		if !droppable {
			for ti := 0; ti < nTasks; ti++ {
				id := model.MakeTaskID(name, fmt.Sprintf("t%d", ti))
				switch rng.Intn(4) {
				case 0:
					plan[id] = hardening.Decision{Technique: hardening.ReExecution, K: 1 + rng.Intn(2)}
				case 1:
					plan[id] = hardening.Decision{Technique: hardening.ActiveReplication, Replicas: 3}
				case 2:
					plan[id] = hardening.Decision{Technique: hardening.PassiveReplication, Replicas: 3}
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
			mapping[task.ID] = model.ProcID(rng.Intn(nProcs))
		}
	}
	sys, err := platform.Compile(a, man.Apps, mapping, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, dropped
}

// TestAnalysisBoundsSimulation is the central soundness property (E6):
// for random systems and random failure profiles, no simulated response
// may exceed the WCRT bound of the proposed analysis (Algorithm 1), and
// the Naive bound must dominate the Proposed one.
func TestAnalysisBoundsSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		sys, dropped := randomSystem(t, rng)
		rep, err := core.Analyze(sys, dropped, core.NewConfig())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		naive, err := core.Naive{}.GraphWCRTs(sys, dropped)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for gi := range naive {
			if naive[gi] < rep.GraphWCRT[gi] {
				t.Errorf("trial %d graph %d: naive %v < proposed %v", trial, gi, naive[gi], rep.GraphWCRT[gi])
			}
		}
		// The wrapper is backend-agnostic: with the coarse backend it must
		// dominate the holistic-backend result (coarse bounds are looser).
		repCoarse, err := core.Analyze(sys, dropped, core.Config{Analyzer: &sched.Coarse{}})
		if err != nil {
			t.Fatalf("trial %d: coarse: %v", trial, err)
		}
		for gi := range rep.GraphWCRT {
			if repCoarse.GraphWCRT[gi].IsInfinite() {
				continue
			}
			if repCoarse.GraphWCRT[gi] < rep.GraphWCRT[gi] {
				t.Errorf("trial %d graph %d: coarse-backend %v below holistic-backend %v",
					trial, gi, repCoarse.GraphWCRT[gi], rep.GraphWCRT[gi])
			}
		}

		check := func(res *RunResult, what string) {
			for gi := range res.GraphResponses {
				bound := rep.GraphWCRT[gi]
				if bound.IsInfinite() {
					continue
				}
				for _, r := range res.GraphResponses[gi] {
					if r > bound {
						t.Errorf("trial %d %s: graph %s response %v exceeds analyzed WCRT %v",
							trial, what, sys.Apps.Graphs[gi].Name, r, bound)
					}
				}
			}
		}

		// Fault-free runs with both execution-time extremes and random
		// times.
		for _, ec := range []ExecModel{WCETExec{}, BCETExec{}, NewRandomExec(int64(trial))} {
			res, err := Run(sys, Config{Dropped: dropped, Exec: ec})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			check(res, "no-fault")
		}
		// Random failure profiles (exaggerated rates so faults happen).
		for s := 0; s < 15; s++ {
			res, err := Run(sys, Config{
				Dropped: dropped,
				Faults:  NewRandomFaults(int64(trial*1000+s), AutoFaultScale(sys)*5),
				Exec:    NewRandomExec(int64(trial*1000 + s)),
			})
			if err != nil {
				t.Fatalf("trial %d seed %d: %v", trial, s, err)
			}
			check(res, fmt.Sprintf("faults(seed %d)", s))
		}
		// The worst-case deterministic trace.
		res, err := Run(sys, Config{Dropped: dropped, Faults: WorstFaults{}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		check(res, "worst-faults")

		// Adhoc is a possible behaviour, so Proposed must dominate it.
		adhoc, err := Adhoc{}.GraphWCRTs(sys, dropped)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for gi := range adhoc {
			if rep.GraphWCRT[gi].IsInfinite() {
				continue
			}
			// Dropped graphs produce no Adhoc response; skip zero entries.
			if adhoc[gi] == 0 {
				continue
			}
			if adhoc[gi] > rep.GraphWCRT[gi] {
				t.Errorf("trial %d: graph %s Adhoc %v exceeds Proposed %v",
					trial, sys.Apps.Graphs[gi].Name, adhoc[gi], rep.GraphWCRT[gi])
			}
		}
	}
}

// TestWCSimBelowProposed checks the Table 2 ordering on a fixed small
// system: WC-Sim <= Proposed <= Naive.
func TestWCSimBelowProposed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sys, dropped := randomSystem(t, rng)
	prop, err := core.Proposed{Config: core.NewConfig()}.GraphWCRTs(sys, dropped)
	if err != nil {
		t.Fatal(err)
	}
	wcs, err := WCSim{Runs: 200, Seed: 9}.GraphWCRTs(sys, dropped)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := core.Naive{}.GraphWCRTs(sys, dropped)
	if err != nil {
		t.Fatal(err)
	}
	for gi := range prop {
		if prop[gi].IsInfinite() {
			continue
		}
		if wcs[gi] > prop[gi] {
			t.Errorf("graph %d: WC-Sim %v > Proposed %v", gi, wcs[gi], prop[gi])
		}
		if naive[gi] < prop[gi] {
			t.Errorf("graph %d: Naive %v < Proposed %v", gi, naive[gi], prop[gi])
		}
	}
}

// algorithm1 is Algorithm 1 written out with nothing skipped: the
// fault-free pass and one backend run per trigger job, folded into
// per-graph and per-job maxima.
type algorithm1 struct {
	graphWCRT, taskWCRT  []model.Time
	normalOK, criticalOK bool
	// binding is, per job, the first pass that reaches its maximum, as
	// Report.Explain defines it.
	binding []core.Binding
	// triggers counts the trigger jobs; converged is false when the
	// fault-free pass diverges and no scenario is analyzed.
	triggers  int
	converged bool
}

// bruteForceAlgorithm1 runs Algorithm 1 on one backend without
// deduplication.
func bruteForceAlgorithm1(t *testing.T, sys *platform.System, dropped core.DropSet, an sched.Analyzer) algorithm1 {
	t.Helper()
	normal, err := an.Analyze(sys, core.NormalExec(sys))
	if err != nil {
		t.Fatal(err)
	}
	ref := algorithm1{
		graphWCRT: make([]model.Time, len(sys.Apps.Graphs)),
		taskWCRT:  make([]model.Time, len(sys.Nodes)),
		binding:   make([]core.Binding, len(sys.Nodes)),
		normalOK:  true, criticalOK: true, converged: true,
	}
	response := func(res *sched.Result, gi int) model.Time {
		var worst model.Time
		for _, id := range sys.GraphNodes[gi] {
			if n := sys.Nodes[id]; len(n.Out) == 0 {
				f := res.Bounds[id].MaxFinish
				if f.IsInfinite() {
					return model.Infinity
				}
				worst = max(worst, f-n.Release)
			}
		}
		return worst
	}
	for _, n := range sys.Nodes {
		ref.taskWCRT[n.ID] = normal.Bounds[n.ID].MaxFinish
		ref.binding[n.ID] = core.Binding{Task: n.Task.ID, WCRT: normal.Bounds[n.ID].MaxFinish}
		ref.converged = ref.converged && !normal.Bounds[n.ID].MaxFinish.IsInfinite()
	}
	for gi, g := range sys.Apps.Graphs {
		ref.graphWCRT[gi] = response(normal, gi)
		ref.normalOK = ref.normalOK && ref.graphWCRT[gi] <= g.EffectiveDeadline()
	}
	if !ref.converged {
		for gi := range ref.graphWCRT {
			ref.graphWCRT[gi] = model.Infinity
		}
		ref.normalOK, ref.criticalOK = false, false
		return ref
	}
	for _, v := range sys.Nodes {
		if !v.Task.ReExecutable() && v.Task.Kind != model.KindDispatch {
			continue
		}
		ref.triggers++
		sc := core.Scenario{Trigger: v.ID, WindowLo: normal.Bounds[v.ID].MinStart, WindowHi: normal.Bounds[v.ID].MaxFinish}
		res, err := an.Analyze(sys, core.ScenarioExec(sys, dropped, normal, sc))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range sys.Nodes {
			f := res.Bounds[n.ID].MaxFinish
			ref.taskWCRT[n.ID] = max(ref.taskWCRT[n.ID], f)
			if f > ref.binding[n.ID].WCRT {
				ref.binding[n.ID] = core.Binding{Task: n.Task.ID, WCRT: f, Trigger: v.Task.ID, WindowLo: sc.WindowLo, WindowHi: sc.WindowHi}
			}
		}
		for gi := range ref.graphWCRT {
			ref.graphWCRT[gi] = max(ref.graphWCRT[gi], response(res, gi))
		}
	}
	for gi, g := range sys.Apps.Graphs {
		if !dropped[g.Name] && ref.graphWCRT[gi] > g.EffectiveDeadline() {
			ref.criticalOK = false
		}
	}
	return ref
}

// TestAnalyzeMatchesBruteForce holds core.Analyze to bruteForceAlgorithm1
// on both analysis engines: the same graph and job WCRTs, verdicts and
// Explain bindings, and every trigger either analyzed or deduplicated.
// Seed 42 draws systems #1 and #601 of randomSystem, on which skipping
// scenarios dominated by an analyzed one lowered a graph WCRT; -short
// checks every 100th system from #1 to #601.
func TestAnalyzeMatchesBruteForce(t *testing.T) {
	systems := 2000
	if testing.Short() {
		systems = 602
	}
	for _, setup := range []struct {
		name  string
		shape systemShape
	}{{"randomSystem", baseShape}, {"wide-messages", wideShape}} {
		t.Run(setup.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < systems; i++ {
				sys, dropped := randomShapedSystem(t, rng, setup.shape)
				if testing.Short() && i%100 != 1 {
					continue
				}
				for _, an := range []sched.Analyzer{&sched.Holistic{}, sched.Reference{}} {
					requireBruteForceMatch(t, fmt.Sprintf("system #%d on %s", i, an.Name()), sys, dropped, an)
				}
			}
		})
	}
}

func requireBruteForceMatch(t *testing.T, what string, sys *platform.System, dropped core.DropSet, an sched.Analyzer) {
	t.Helper()
	rep, err := core.Analyze(sys, dropped, core.Config{Analyzer: an})
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := bruteForceAlgorithm1(t, sys, dropped, an)
	if rep.NormalOK != want.normalOK || rep.CriticalOK != want.criticalOK {
		t.Errorf("%s: verdicts normal=%v critical=%v, brute force %v %v",
			what, rep.NormalOK, rep.CriticalOK, want.normalOK, want.criticalOK)
	}
	for gi, g := range sys.Apps.Graphs {
		if rep.GraphWCRT[gi] != want.graphWCRT[gi] {
			t.Errorf("%s: graph %s WCRT %v, brute force %v", what, g.Name, rep.GraphWCRT[gi], want.graphWCRT[gi])
		}
	}
	for _, n := range sys.Nodes {
		if rep.TaskWCRT[n.ID] != want.taskWCRT[n.ID] {
			t.Errorf("%s: job %d (%s) WCRT %v, brute force %v", what, n.ID, n.Task.ID, rep.TaskWCRT[n.ID], want.taskWCRT[n.ID])
		}
	}
	explained := map[model.TaskID]bool{}
	for _, n := range sys.Nodes {
		if explained[n.Task.ID] {
			continue
		}
		explained[n.Task.ID] = true
		var wantB []core.Binding
		for _, m := range sys.Nodes {
			if m.Task.ID == n.Task.ID {
				wantB = append(wantB, want.binding[m.ID])
			}
		}
		if got := rep.Explain(n.Task.ID); !slices.Equal(got, wantB) {
			t.Errorf("%s: Explain(%s) = %v, brute force %v", what, n.Task.ID, got, wantB)
		}
	}
	if want.converged && rep.ScenariosAnalyzed+rep.ScenariosDeduped != 1+want.triggers {
		t.Errorf("%s: %d analyzed + %d deduplicated, want 1 + %d triggers",
			what, rep.ScenariosAnalyzed, rep.ScenariosDeduped, want.triggers)
	}
}
