package platform_test

import (
	"math/rand"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// lower is Compile's lowering of a mapped application set to the index
// form Build takes.
func lower(t testing.TB, arch *model.Architecture, apps *model.AppSet, mapping model.Mapping) []platform.MappedGraph {
	t.Helper()
	graphs := make([]platform.MappedGraph, len(apps.Graphs))
	for gi, g := range apps.Graphs {
		links, err := model.Links(g)
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]int, len(g.Tasks))
		for k, task := range g.Tasks {
			procs[k] = arch.ProcIndex(mapping[task.ID])
		}
		graphs[gi] = platform.MappedGraph{Links: links, Procs: procs}
	}
	return graphs
}

// TestBuilderMatchesBuild runs one Builder over designs of every
// bundled benchmark — the reference plan and a random one, under the
// three sample mappings, on preemptive and non-preemptive platforms —
// in an order whose system sizes grow and shrink. Each System, read
// before the next Build overwrites it, must equal a fresh Compile's in
// everything signature renders, and each must come in a header of its
// own.
func TestBuilderMatchesBuild(t *testing.T) {
	var b platform.Builder
	var prev *platform.System
	rng := rand.New(rand.NewSource(9))
	for _, name := range []string{"dt-large", "cruise", "synth-2", "dt-med", "synth-1", "dt-large", "cruise"} {
		bench, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for pi, plan := range []hardening.Plan{bench.Plan, randomPlan(bench.Apps, rng)} {
			man, err := hardening.Apply(bench.Apps, plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []benchmarks.MappingStrategy{benchmarks.MapLoadBalance, benchmarks.MapClustered, benchmarks.MapSeededRandom} {
				mapping := bench.SampleMapping(man, strat)
				for variant := 0; variant < 2; variant++ {
					arch := platformVariant(bench.Arch, model.FabricIdeal, variant)
					want, err := platform.Compile(arch, man.Apps, mapping, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := b.Build(arch, man.Apps, lower(t, arch, man.Apps, mapping), nil)
					if err != nil {
						t.Fatal(err)
					}
					if got == prev {
						t.Fatalf("%s plan%d/map%d/v%d: Build returned the previous System header", name, pi, strat, variant)
					}
					prev = got
					if g, w := signature(got), signature(want); g != w {
						t.Fatalf("%s plan%d/map%d/v%d: reused Builder differs from Compile:\n got %.1000s\nwant %.1000s", name, pi, strat, variant, g, w)
					}
				}
			}
		}
	}
}
