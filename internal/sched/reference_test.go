package sched

import (
	"reflect"
	"testing"

	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// requireSameResult compares every field of two results: Holistic and
// Reference walk the same sequence of fixed-point states, so they must
// agree on the sweep count too, not just on the bounds and verdict.
func requireSameResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if got.Schedulable != want.Schedulable {
		t.Fatalf("%s: schedulable = %v, want %v", ctx, got.Schedulable, want.Schedulable)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations = %d, want %d", ctx, got.Iterations, want.Iterations)
	}
	if !reflect.DeepEqual(got.Bounds, want.Bounds) {
		t.Fatalf("%s: bounds differ:\n got %v\nwant %v", ctx, got.Bounds, want.Bounds)
	}
}

// twoProcSystem builds a system rich enough to exercise every coupling
// the holistic equations model: a cross-processor chain whose first hop
// carries two parallel channels of different sizes, same-processor
// interference on both processors, and an independent graph.
func twoProcSystem(t *testing.T, mutate func(*model.Architecture)) *platform.System {
	t.Helper()
	g := model.NewTaskGraph("g", 100).SetCritical(1e-9)
	g.AddTask("a", 2, 5, 0, 0)
	g.AddTask("b", 3, 6, 0, 0)
	g.AddTask("c", 1, 4, 0, 0)
	g.AddChannel("a", "b", 4)
	g.AddChannel("a", "b", 8)
	g.AddChannel("b", "c", 4)
	h := model.NewTaskGraph("h", 50)
	h.AddTask("x", 1, 3, 0, 0)
	h.AddTask("y", 1, 2, 0, 0)
	h.AddChannel("x", "y", 2)
	a := arch(2)
	if mutate != nil {
		mutate(a)
	}
	return compile(t, a, model.NewAppSet(g, h), model.Mapping{
		"g/a": 0, "g/b": 1, "g/c": 0, "h/x": 0, "h/y": 1,
	})
}

// perturbations returns exec vectors derived from the nominal one:
// single-entry widenings, narrowings, multi-entry changes, and the
// unchanged vector itself.
func perturbations(nominal []ExecBounds) [][]ExecBounds {
	var out [][]ExecBounds
	for i := range nominal {
		p := CloneExec(nominal)
		p[i].W *= 3 // inflate one worst case
		out = append(out, p)
		q := CloneExec(nominal)
		q[i].B = 0 // widen one best case
		out = append(out, q)
	}
	all := CloneExec(nominal)
	for i := range all {
		all[i].B = 0
		all[i].W++
	}
	return append(out, all, CloneExec(nominal))
}

// checkHolisticAgainstReference runs every perturbation through the
// reference and through Holistic — both the pooled entry point and a
// pinned session reused across the whole sweep — and requires identical
// results.
func checkHolisticAgainstReference(t *testing.T, sys *platform.System) {
	t.Helper()
	h := &Holistic{}
	ses := h.OpenSession(sys)
	defer ses.Close()
	for _, exec := range perturbations(NominalExec(sys)) {
		want, err := Reference{}.Analyze(sys, exec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.Analyze(sys, exec)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "holistic", got, want)
		got, err = ses.Analyze(exec)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "session", got, want)
	}
}

func TestReferenceMatchesHolistic(t *testing.T) {
	checkHolisticAgainstReference(t, twoProcSystem(t, nil))
}

func TestReferenceMatchesHolisticNonPreemptive(t *testing.T) {
	checkHolisticAgainstReference(t, twoProcSystem(t, func(a *model.Architecture) {
		a.Procs[0].NonPreemptive = true
	}))
}

func TestReferenceMatchesHolisticMesh(t *testing.T) {
	checkHolisticAgainstReference(t, twoProcSystem(t, func(a *model.Architecture) {
		a.Fabric.Kind = model.FabricMesh
		a.Fabric.BaseLatency = 1
	}))
}

// TestReferenceMatchesHolisticSharedBus covers both arbitrated fabrics,
// where every sweep also re-derives the message delays — including the
// fixture's two parallel a->b channels, which form one message.
func TestReferenceMatchesHolisticSharedBus(t *testing.T) {
	for _, kind := range []model.FabricKind{model.FabricSharedBus, model.FabricCrossbar} {
		sys := twoProcSystem(t, func(a *model.Architecture) {
			a.Fabric.Kind = kind
			a.Fabric.Bandwidth = 2
			a.Fabric.BaseLatency = 1
		})
		if !sys.Arch.Fabric.Arbitrated() {
			t.Fatalf("%v fixture is not arbitrated", kind)
		}
		checkHolisticAgainstReference(t, sys)
	}
}

// TestKernelSegmentsMatchDefinition pins the kernel's precomputed peer
// segments to their definitions, written out here the way the reference
// evaluates them inline: same processor and higher priority minus
// transitive predecessors (interference), higher priority (guaranteed
// demand), and lower priority minus relatives on non-preemptive
// processors (blocking). A job's reader segment is every job whose
// interference or blocking segment holds it. Segments are compared as
// multisets.
func TestKernelSegmentsMatchDefinition(t *testing.T) {
	sys := twoProcSystem(t, func(a *model.Architecture) {
		a.Procs[1].NonPreemptive = true
	})
	var kern holisticKernel
	kern.build(sys)
	count := func(ids []int32) map[int32]int {
		out := map[int32]int{}
		for _, id := range ids {
			out[id]++
		}
		return out
	}
	n := len(sys.Nodes)
	interf, demand, block := make([][]int32, n), make([][]int32, n), make([][]int32, n)
	readers := make([][]int32, n)
	for nid, node := range sys.Nodes {
		id := platform.NodeID(nid)
		for _, p := range sys.ProcNodes[node.Proc] {
			prio := sys.Nodes[p].Priority
			if prio < node.Priority {
				demand[nid] = append(demand[nid], int32(p))
				if !sys.IsAncestor(p, id) {
					interf[nid] = append(interf[nid], int32(p))
					readers[p] = append(readers[p], int32(nid))
				}
			}
			if node.NonPreemptive && prio > node.Priority && !sys.IsAncestor(p, id) && !sys.IsAncestor(id, p) {
				block[nid] = append(block[nid], int32(p))
				readers[p] = append(readers[p], int32(nid))
			}
		}
	}
	sawBlock := false
	for nid := range sys.Nodes {
		id := platform.NodeID(nid)
		for _, c := range []struct {
			name      string
			got, want []int32
		}{
			{"interf", kern.interfSeg(id), interf[nid]},
			{"demand", kern.demandSeg(id), demand[nid]},
			{"block", kern.blockSeg(id), block[nid]},
			{"readers", kern.readerSeg(id), readers[nid]},
		} {
			if !reflect.DeepEqual(count(c.got), count(c.want)) {
				t.Fatalf("node %d %s = %v, want %v", nid, c.name, c.got, c.want)
			}
		}
		sawBlock = sawBlock || len(block[nid]) > 0
	}
	if !sawBlock {
		t.Fatal("fixture has no blocking segment, so block readers go untested")
	}
}
