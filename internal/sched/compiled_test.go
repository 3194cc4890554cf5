package sched

import (
	"reflect"
	"testing"

	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// requireSameResult compares every observable field of two results: the
// compiled path promises bit-identical analyses, not just equal
// verdicts. Iterations is the
// documented exception (see sched.Result): it is a diagnostic sweep
// count, and the compiled engine's restricted phase-D closures finish
// in at most as many sweeps as the pointer path's full re-sweeps — so
// it must stay positive and never exceed the pointer count.
func requireSameResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if got.Schedulable != want.Schedulable {
		t.Fatalf("%s: schedulable = %v, want %v", ctx, got.Schedulable, want.Schedulable)
	}
	if got.Iterations > want.Iterations || (got.Iterations <= 0 && want.Iterations > 0) {
		t.Fatalf("%s: iterations = %d, want in [1, %d]", ctx, got.Iterations, want.Iterations)
	}
	if !reflect.DeepEqual(got.Bounds, want.Bounds) {
		t.Fatalf("%s: bounds differ:\n got %v\nwant %v", ctx, got.Bounds, want.Bounds)
	}
}

// twoProcSystem builds a system rich enough to exercise every coupling
// the holistic equations model: a cross-processor chain, same-processor
// interference on both processors, and an independent graph.
func twoProcSystem(t *testing.T, mutate func(*model.Architecture)) *platform.System {
	t.Helper()
	g := model.NewTaskGraph("g", 100).SetCritical(1e-9)
	g.AddTask("a", 2, 5, 0, 0)
	g.AddTask("b", 3, 6, 0, 0)
	g.AddTask("c", 1, 4, 0, 0)
	g.AddChannel("a", "b", 4)
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
	clone := func() []ExecBounds {
		c := make([]ExecBounds, len(nominal))
		copy(c, nominal)
		return c
	}
	for i := range nominal {
		p := clone()
		p[i].W *= 3 // inflate one worst case
		out = append(out, p)
		q := clone()
		q[i].B = 0 // widen one best case
		out = append(out, q)
	}
	all := clone()
	for i := range all {
		all[i].B = 0
		all[i].W++
	}
	out = append(out, all, clone())
	return out
}

// checkCompiledAgainstPointer runs the nominal vector and every
// perturbation through both engines and requires identical results.
func checkCompiledAgainstPointer(t *testing.T, sys *platform.System) {
	t.Helper()
	h := &Holistic{}
	cs := h.CompiledFor(sys)
	nominal := NominalExec(sys)
	if got := cs.NominalExec(); !reflect.DeepEqual(got, nominal) {
		t.Fatalf("compiled nominal exec differs:\n got %v\nwant %v", got, nominal)
	}
	baseP, err := h.Analyze(sys, nominal)
	if err != nil {
		t.Fatal(err)
	}
	baseC, err := h.AnalyzeCompiled(cs, nominal)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "nominal", baseC, baseP)

	for _, exec := range perturbations(nominal) {
		pointer, err := h.Analyze(sys, exec)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := h.AnalyzeCompiled(cs, exec)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "perturbation", compiled, pointer)
	}
}

func TestCompiledMatchesPointer(t *testing.T) {
	checkCompiledAgainstPointer(t, twoProcSystem(t, nil))
}

func TestCompiledMatchesPointerNonPreemptive(t *testing.T) {
	checkCompiledAgainstPointer(t, twoProcSystem(t, func(a *model.Architecture) {
		a.Procs[0].NonPreemptive = true
	}))
}

func TestCompiledMatchesPointerMesh(t *testing.T) {
	checkCompiledAgainstPointer(t, twoProcSystem(t, func(a *model.Architecture) {
		a.Fabric.Kind = model.FabricMesh
		a.Fabric.BaseLatency = 1
	}))
}

// TestCompiledArbitratedDelegates: the compiled kernel does not model bus
// arbitration, so shared-fabric systems must take the documented
// delegation to the pointer path and still match it exactly.
func TestCompiledArbitratedDelegates(t *testing.T) {
	sys := twoProcSystem(t, func(a *model.Architecture) {
		a.Fabric.Shared = true
		a.Fabric.Bandwidth = 2
		a.Fabric.BaseLatency = 1
	})
	if !sys.Arch.Fabric.Arbitrated() {
		t.Fatal("fixture is not arbitrated")
	}
	checkCompiledAgainstPointer(t, sys)
}

// refReaders derives node nid's reader set straight from the pointer
// graph: graph successors, lower-priority same-processor peers and, on
// non-preemptive processors, every same-processor peer.
func refReaders(sys *platform.System, nid platform.NodeID) []platform.NodeID {
	node := sys.Nodes[nid]
	out := []platform.NodeID{}
	for _, e := range node.Out {
		out = append(out, e.To)
	}
	for _, pid := range sys.ProcNodes[node.Proc] {
		if pid != nid && (node.NonPreemptive || sys.Nodes[pid].Priority > node.Priority) {
			out = append(out, pid)
		}
	}
	return out
}

// TestCompileSystemMatchesKernel pins the columnar peer segments against
// the pointer kernel they lower (and the reader segments against their
// definition): same sets, same per-node order.
func TestCompileSystemMatchesKernel(t *testing.T) {
	sys := twoProcSystem(t, func(a *model.Architecture) {
		a.Procs[1].NonPreemptive = true
	})
	var kern holisticKernel
	kern.build(sys)
	cs := CompileSystem(sys)
	seg := func(off, flat []int32, nid int) []platform.NodeID {
		out := []platform.NodeID{}
		for e := off[nid]; e < off[nid+1]; e++ {
			out = append(out, platform.NodeID(flat[e]))
		}
		return out
	}
	asIDs := func(s []platform.NodeID) []platform.NodeID {
		if s == nil {
			return []platform.NodeID{}
		}
		return s
	}
	for nid := range sys.Nodes {
		id := platform.NodeID(nid)
		if got, want := seg(cs.InterfOff, cs.Interf, nid), asIDs(kern.interfSeg(id)); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d interf = %v, want %v", nid, got, want)
		}
		if got, want := seg(cs.BlockOff, cs.Block, nid), asIDs(kern.blockSeg(id)); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d block = %v, want %v", nid, got, want)
		}
		if got, want := seg(cs.DemandOff, cs.Demand, nid), asIDs(kern.demandSeg(id)); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d demand = %v, want %v", nid, got, want)
		}
		if got, want := seg(cs.ReadersOff, cs.Readers, nid), refReaders(sys, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d readers = %v, want %v", nid, got, want)
		}
	}
}

// TestCompiledClosureMatchesPointer: the columnar closure expansion
// behind phase D's lift closure must mark exactly the nodes reachable
// over the pointer graph's reader relation.
func TestCompiledClosureMatchesPointer(t *testing.T) {
	sys := twoProcSystem(t, func(a *model.Architecture) {
		a.Procs[0].NonPreemptive = true
	})
	cs := CompileSystem(sys)
	n := len(sys.Nodes)
	for seed := 0; seed < n; seed++ {
		dirty := make([]bool, n)
		dirty[seed] = true
		affP := make([]bool, n)
		countP := 0
		for stack := []platform.NodeID{platform.NodeID(seed)}; len(stack) > 0; {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if affP[id] {
				continue
			}
			affP[id] = true
			countP++
			stack = append(stack, refReaders(sys, id)...)
		}
		affC := make([]bool, n)
		countC, _ := compiledClosure(cs, dirty, affC, nil)
		if countP != countC || !reflect.DeepEqual(affP, affC) {
			t.Fatalf("seed %d: closure %v (%d), want %v (%d)", seed, affC, countC, affP, countP)
		}
	}
}

// TestCompiledForCaches: repeated lookups of one system share one table;
// distinct systems get distinct tables; the FIFO bound holds.
func TestCompiledForCaches(t *testing.T) {
	h := &Holistic{}
	sysA := twoProcSystem(t, nil)
	sysB := twoProcSystem(t, nil)
	csA := h.CompiledFor(sysA)
	if h.CompiledFor(sysA) != csA {
		t.Fatal("second lookup recompiled the same system")
	}
	if h.CompiledFor(sysB) == csA {
		t.Fatal("distinct systems share a compiled table")
	}
	if csA.Sys != sysA {
		t.Fatal("compiled table does not pin its source system")
	}
	for i := 0; i < 3*compiledTablesCap; i++ {
		h.CompiledFor(twoProcSystem(t, nil))
	}
	h.compiled.mu.Lock()
	entries, fifo := len(h.compiled.m), len(h.compiled.fifo)
	h.compiled.mu.Unlock()
	if entries > compiledTablesCap || fifo > compiledTablesCap {
		t.Fatalf("cache exceeded bound: %d entries, %d fifo", entries, fifo)
	}
}
