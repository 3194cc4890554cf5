package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// TestWCRTOf pins the graph-name accessor: every graph resolves to its
// GraphWCRT entry, and unknown names report Infinity (never a panic or a
// silently-wrong zero, which callers would read as "meets any deadline").
func TestWCRTOf(t *testing.T) {
	sys, dropped := synthSample(t, 1, benchmarks.MapLoadBalance)
	rep, err := core.Analyze(sys, dropped, core.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range sys.Apps.Graphs {
		if got := rep.WCRTOf(g.Name); got != rep.GraphWCRT[gi] {
			t.Errorf("WCRTOf(%q) = %v, want GraphWCRT[%d] = %v", g.Name, got, gi, rep.GraphWCRT[gi])
		}
	}
	if got := rep.WCRTOf("no-such-graph"); !got.IsInfinite() {
		t.Errorf("WCRTOf(unknown) = %v, want Infinity", got)
	}
}

// TestExplainBindings checks the designer-facing WCRT attribution: for
// every original task, Explain returns one binding per job, each binding
// agrees with the TaskWCRT aggregate for that job, and a named trigger
// scenario actually achieves the reported completion time.
func TestExplainBindings(t *testing.T) {
	sys, dropped := synthSample(t, 1, benchmarks.MapLoadBalance)
	rep, err := core.Analyze(sys, dropped, core.NewConfig())
	if err != nil {
		t.Fatal(err)
	}

	if got := rep.Explain("no/such-task"); len(got) != 0 {
		t.Fatalf("Explain(unknown) = %v, want empty", got)
	}

	seenTrigger := false
	tasks := map[model.TaskID]bool{}
	for _, n := range sys.Nodes {
		tasks[n.Task.ID] = true
	}
	for task := range tasks {
		bindings := rep.Explain(task)
		var jobs []int
		for _, n := range sys.Nodes {
			if n.Task.ID == task {
				jobs = append(jobs, int(n.ID))
			}
		}
		if len(bindings) != len(jobs) {
			t.Fatalf("Explain(%q): %d bindings for %d jobs", task, len(bindings), len(jobs))
		}
		for i, b := range bindings {
			id := jobs[i]
			if b.Task != task {
				t.Fatalf("Explain(%q): binding %d attributed to %q", task, i, b.Task)
			}
			// The binding must reproduce the aggregate the Report already
			// publishes per job.
			if b.WCRT != rep.TaskWCRT[id] {
				t.Errorf("Explain(%q) job %d: WCRT %v != TaskWCRT %v", task, id, b.WCRT, rep.TaskWCRT[id])
			}
			if b.Trigger == "" {
				// Fault-free binding: the normal pass must achieve it, and
				// the window must stay zero.
				if b.WCRT != rep.Normal.Bounds[id].MaxFinish {
					t.Errorf("Explain(%q) job %d: fault-free binding %v != normal finish %v",
						task, id, b.WCRT, rep.Normal.Bounds[id].MaxFinish)
				}
				if b.WindowLo != 0 || b.WindowHi != 0 {
					t.Errorf("Explain(%q) job %d: fault-free binding carries window [%v,%v]",
						task, id, b.WindowLo, b.WindowHi)
				}
				continue
			}
			seenTrigger = true
			// A trigger binding must point at a recorded scenario that
			// actually achieves the reported completion time.
			found := false
			for _, sc := range rep.Scenarios {
				if rep.Sys.Nodes[sc.Scenario.Trigger].Task.ID == b.Trigger &&
					sc.Scenario.WindowLo == b.WindowLo && sc.Scenario.WindowHi == b.WindowHi &&
					sc.Result.Bounds[id].MaxFinish == b.WCRT {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("Explain(%q) job %d: no recorded scenario matches binding %+v", task, id, b)
			}
			if b.WCRT <= rep.Normal.Bounds[id].MaxFinish {
				t.Errorf("Explain(%q) job %d: trigger binding %v does not exceed the fault-free finish %v",
					task, id, b.WCRT, rep.Normal.Bounds[id].MaxFinish)
			}
		}
	}
	if !seenTrigger {
		t.Error("no task's WCRT was bound by a fault scenario — trigger attribution untested")
	}
}

// synthSample compiles one seeded random platform/mapping pair.
func synthSample(t *testing.T, seed int64, strat benchmarks.MappingStrategy) (*platform.System, core.DropSet) {
	t.Helper()
	bench := benchmarks.Synth(benchmarks.SynthConfig{
		Name: fmt.Sprintf("inc-%d", seed), Procs: 4,
		CriticalApps: 2, DroppableApps: 2,
		MinTasks: 3, MaxTasks: 6,
		Seed: seed,
	})
	sys, dropped, err := bench.CompiledSample(strat)
	if err != nil {
		t.Fatal(err)
	}
	return sys, dropped
}

// reportSignature serializes the verdicts, the aggregated WCRTs, the
// normal pass, the scenario counters and every scenario's identity,
// exec vector, bounds and verdict. Result.Iterations is left to
// paritySignature, which adds it.
func reportSignature(rep *core.Report) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "normalOK=%v criticalOK=%v\n", rep.NormalOK, rep.CriticalOK)
	fmt.Fprintf(&b, "graphWCRT=%v\ntaskWCRT=%v\n", rep.GraphWCRT, rep.TaskWCRT)
	fmt.Fprintf(&b, "normal sched=%v bounds=%v\n", rep.Normal.Schedulable, rep.Normal.Bounds)
	fmt.Fprintf(&b, "analyzed=%d deduped=%d\n", rep.ScenariosAnalyzed, rep.ScenariosDeduped)
	for _, sr := range rep.Scenarios {
		fmt.Fprintf(&b, "sc trigger=%d win=[%v,%v] exec=%v sched=%v bounds=%v\n",
			sr.Scenario.Trigger, sr.Scenario.WindowLo, sr.Scenario.WindowHi,
			sr.Exec, sr.Result.Schedulable, sr.Result.Bounds)
	}
	return b.Bytes()
}
