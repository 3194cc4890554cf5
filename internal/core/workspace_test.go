package core_test

import (
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// workspaceCase is one system of a reuse sequence, with its drop set.
type workspaceCase struct {
	name    string
	sys     *platform.System
	dropped core.DropSet
}

// workspaceSequence compiles the sample designs of every bundled
// benchmark, plus shared-bus and non-preemptive variants, in an order
// whose system sizes grow and shrink, each with its default drop set
// and again with none.
func workspaceSequence(t *testing.T) []workspaceCase {
	t.Helper()
	var out []workspaceCase
	add := func(name string, b *benchmarks.Benchmark, strat benchmarks.MappingStrategy) {
		sys, dropped, err := b.CompiledSample(strat)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, workspaceCase{name, sys, dropped}, workspaceCase{name + "/nodrop", sys, core.DropSet{}})
	}
	for _, name := range []string{"dt-large", "cruise", "synth-2", "dt-med", "synth-1", "dt-large"} {
		b, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		add(name, b, benchmarks.MapLoadBalance)
		if name == "cruise" || name == "dt-med" {
			shared, err := benchmarks.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			shared.Arch.Fabric.Kind = model.FabricSharedBus
			add(name+"/shared-bus", shared, benchmarks.MapClustered)
			np, err := benchmarks.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for i := range np.Arch.Procs {
				np.Arch.Procs[i].NonPreemptive = true
			}
			add(name+"/non-preemptive", np, benchmarks.MapSeededRandom)
		}
	}
	return out
}

// TestWorkspaceMatchesAnalyze runs one Workspace over a sequence of
// systems whose sizes grow and shrink, and requires each of its
// Reports, read before the next call overwrites it, to equal a fresh
// core.Analyze of the same system in every field paritySignature
// renders: every scenario's execution vector, bounds and Iterations.
func TestWorkspaceMatchesAnalyze(t *testing.T) {
	var w core.Workspace
	cfg := core.NewConfig()
	for _, c := range workspaceSequence(t) {
		want, err := core.Analyze(c.sys, c.dropped, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Analyze(c.sys, c.dropped, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := paritySignature(got), paritySignature(want); g != w {
			t.Fatalf("%s: reused workspace diverges from a fresh analysis\n got %.400s\nwant %.400s", c.name, g, w)
		}
		if len(got.Dropped) != len(c.dropped) {
			t.Fatalf("%s: report drops %v, want %v", c.name, got.Dropped, c.dropped)
		}
	}
}
