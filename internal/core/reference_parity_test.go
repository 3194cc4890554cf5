package core_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/sched"
)

// paritySignature extends reportSignature with every backend result's
// Iterations, so equal signatures mean byte-identical Reports in every
// field the analysis contract covers, including the dedup trajectory
// and the sweep counts.
func paritySignature(rep *core.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|iters=%d", reportSignature(rep), rep.Normal.Iterations)
	for _, sr := range rep.Scenarios {
		fmt.Fprintf(&b, ",%d", sr.Result.Iterations)
	}
	return b.String()
}

// requireReferenceParity analyzes one system with the production
// configuration and with the reference backend, and requires identical
// Report signatures.
func requireReferenceParity(t *testing.T, name string, sys *platform.System, dropped core.DropSet) {
	t.Helper()
	want, err := core.Analyze(sys, dropped, core.Config{Analyzer: sched.Reference{}})
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := core.Analyze(sys, dropped, core.NewConfig())
	if err != nil {
		t.Fatalf("%s: production: %v", name, err)
	}
	if gotSig, wantSig := paritySignature(got), paritySignature(want); gotSig != wantSig {
		t.Errorf("%s: production report diverges from the reference\n got %.400s\nwant %.400s",
			name, gotSig, wantSig)
	}
}

// TestReferenceReportParity is the end-to-end parity property over the
// whole Algorithm 1 wrapper: for a spread of platforms — the Cruise
// case study, dense few-processor synthetics, wide sparse ones, a
// shared-bus fabric, and every bundled benchmark under every fabric
// model (plus non-preemptive processors) and sample mapping — the
// production Report must be byte-identical to the reference backend's,
// sweep counts included.
func TestReferenceReportParity(t *testing.T) {
	type tc struct {
		name  string
		bench *benchmarks.Benchmark
		strat benchmarks.MappingStrategy
	}
	cases := []tc{
		{"cruise", benchmarks.Cruise(), benchmarks.MapClustered},
		{"dt-med", benchmarks.DTMed(), benchmarks.MapLoadBalance},
	}
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, tc{
			name: fmt.Sprintf("dense-%d", seed),
			bench: benchmarks.Synth(benchmarks.SynthConfig{
				Name: fmt.Sprintf("dense-%d", seed), Procs: 3,
				CriticalApps: 2, DroppableApps: 2,
				MinTasks: 4, MaxTasks: 8, Seed: seed,
			}),
			strat: benchmarks.MapLoadBalance,
		}, tc{
			name: fmt.Sprintf("sparse-%d", seed),
			bench: benchmarks.Synth(benchmarks.SynthConfig{
				Name: fmt.Sprintf("sparse-%d", seed), Procs: 10,
				CriticalApps: 3, DroppableApps: 3,
				MinTasks: 2, MaxTasks: 4, Seed: seed,
			}),
			strat: benchmarks.MapSeededRandom,
		})
	}
	shared := benchmarks.Cruise()
	shared.Arch.Fabric.Shared = true
	cases = append(cases, tc{"shared-bus", shared, benchmarks.MapLoadBalance})

	fabrics := []struct {
		name   string
		mutate func(*model.Architecture)
	}{
		{"ideal", func(a *model.Architecture) { a.Fabric.Kind, a.Fabric.Shared = model.FabricIdeal, false }},
		{"shared-bus", func(a *model.Architecture) { a.Fabric.Kind = model.FabricSharedBus }},
		{"crossbar", func(a *model.Architecture) { a.Fabric.Kind = model.FabricCrossbar }},
		{"mesh", func(a *model.Architecture) { a.Fabric.Kind = model.FabricMesh }},
		{"non-preemptive", func(a *model.Architecture) {
			a.Fabric.Kind, a.Fabric.Shared = model.FabricIdeal, false
			for i := range a.Procs {
				a.Procs[i].NonPreemptive = true
			}
		}},
	}
	for _, name := range benchmarks.Names() {
		for _, fab := range fabrics {
			for _, strat := range []benchmarks.MappingStrategy{benchmarks.MapLoadBalance, benchmarks.MapClustered, benchmarks.MapSeededRandom} {
				bench, err := benchmarks.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				fab.mutate(bench.Arch)
				cases = append(cases, tc{fmt.Sprintf("matrix/%s/%s/%v", name, fab.name, strat), bench, strat})
			}
		}
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			sys, dropped, err := c.bench.CompiledSample(c.strat)
			if err != nil {
				t.Fatal(err)
			}
			requireReferenceParity(t, c.name, sys, dropped)
		})
	}
}

// fuzzSystem turns a decoded spec into an analyzable system the same
// way for both backends: a deterministic hardening plan (cycling
// re-execution / passive replication / none over the task list, so
// trigger-rich scenario sets arise) and a round-robin mapping over the
// hardened task set. Specs that fail validation, hardening or platform
// compilation return nil — the fuzzer treats those as uninteresting.
func fuzzSystem(data []byte) (*platform.System, core.DropSet) {
	var s model.Spec
	if json.Unmarshal(data, &s) != nil {
		return nil, nil
	}
	if s.Architecture == nil || s.Apps == nil || s.Validate() != nil {
		return nil, nil
	}
	plan := hardening.Plan{}
	i := 0
	for _, g := range s.Apps.Graphs {
		for _, task := range g.Tasks {
			switch i % 3 {
			case 0:
				plan[task.ID] = hardening.Decision{Technique: hardening.ReExecution, K: 1}
			case 1:
				plan[task.ID] = hardening.Decision{Technique: hardening.PassiveReplication, Replicas: hardening.ActiveBase + 1}
			}
			i++
		}
	}
	man, err := hardening.Apply(s.Apps, plan)
	if err != nil {
		return nil, nil
	}
	// Count the jobs, Σ_g (H/T_g)·|V_g|, before compiling: Compile has no
	// job cap (MC0126 lives in validate), and a mutated period can
	// unroll to millions of jobs whose ancestor bitsets exhaust memory.
	// Busy-window divergence is only detected at 4x the hyperperiod, so
	// a long hyperperiod can also make a single analysis run for
	// seconds. Parity needs many cheap systems, not a few enormous ones.
	h, err := man.Apps.Hyperperiod()
	if err != nil || h > 1_000_000 {
		return nil, nil
	}
	jobs := 0
	for _, g := range man.Apps.Graphs {
		jobs += int(h/g.Period) * len(g.Tasks)
	}
	if jobs > 64 {
		return nil, nil
	}
	mapping := model.Mapping{}
	i = 0
	for _, g := range man.Apps.Graphs {
		for _, task := range g.Tasks {
			mapping[task.ID] = s.Architecture.Procs[i%len(s.Architecture.Procs)].ID
			i++
		}
	}
	sys, err := platform.Compile(s.Architecture, man.Apps, mapping, nil)
	if err != nil {
		return nil, nil
	}
	dropped := core.DropSet{}
	for _, g := range man.Apps.Graphs {
		if g.Droppable() {
			dropped[g.Name] = true
		}
	}
	if dropped.Validate(man.Apps) != nil {
		return nil, nil
	}
	return sys, dropped
}

// FuzzReferenceReportParity reuses the FuzzCheckSpec input corpus (the
// spec JSONs under internal/model/testdata plus whatever the fuzzer
// mutates out of them) to hunt for system shapes where the production
// Report diverges from the reference backend's.
func FuzzReferenceReportParity(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "model", "testdata", "spec_*.json"))
	for _, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, dropped := fuzzSystem(data)
		if sys == nil {
			return
		}
		requireReferenceParity(t, "fuzz", sys, dropped)
	})
}
