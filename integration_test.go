package mcmap_test

import (
	"strings"
	"testing"

	"mcmap"
	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/sim"
)

// TestFullPipelineOnAllBenchmarks exercises the complete stack on every
// bundled benchmark: harden with the reference plan, build the sample
// mapping, compile, analyze (Algorithm 1), assess reliability and power,
// simulate with a validated trace, and cross-check the simulated
// responses against the analyzed bounds.
func TestFullPipelineOnAllBenchmarks(t *testing.T) {
	for _, name := range mcmap.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			b, err := mcmap.BenchmarkByName(name)
			if err != nil {
				t.Fatal(err)
			}
			man, err := b.Hardened()
			if err != nil {
				t.Fatal(err)
			}
			mapping := b.SampleMapping(man, benchmarks.MapClustered)
			sys, err := mcmap.Compile(b.Arch, man.Apps, mapping)
			if err != nil {
				t.Fatal(err)
			}
			dropped := b.DefaultDropSet()

			rep, err := mcmap.AnalyzeWCRT(sys, dropped)
			if err != nil {
				t.Fatal(err)
			}
			for _, cn := range b.CriticalNames {
				if rep.WCRTOf(cn).IsInfinite() {
					t.Errorf("%s diverged", cn)
				}
			}

			rel, err := mcmap.AssessReliability(b.Arch, man, mapping)
			if err != nil {
				t.Fatal(err)
			}
			if !rel.OK() {
				t.Errorf("reference plan violates reliability: %v", rel.Violations)
			}
			pw, err := mcmap.ExpectedPower(b.Arch, man, mapping, nil)
			if err != nil {
				t.Fatal(err)
			}
			if pw.Total <= 0 {
				t.Error("non-positive power")
			}

			// Simulate under several failure profiles; every trace must
			// validate and every response must respect the bounds.
			for seed := int64(0); seed < 4; seed++ {
				res, err := mcmap.Simulate(sys, mcmap.SimConfig{
					Dropped:     dropped,
					Faults:      mcmap.RandomFaults(seed, mcmap.AutoFaultScale(sys)*6),
					RecordTrace: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := sim.ValidateTrace(sys, res.Trace); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for gi := range res.GraphResponses {
					bound := rep.GraphWCRT[gi]
					if bound.IsInfinite() {
						continue
					}
					for _, r := range res.GraphResponses[gi] {
						if r > bound {
							t.Errorf("seed %d: %s response %v exceeds bound %v",
								seed, sys.Apps.Graphs[gi].Name, r, bound)
						}
					}
				}
			}
		})
	}
}

// TestEstimatorOrderingOnAllBenchmarks asserts the Section 5.1 ordering
// (Adhoc, WC-Sim <= Proposed <= Naive) on every benchmark's clustered
// sample mapping.
func TestEstimatorOrderingOnAllBenchmarks(t *testing.T) {
	runs := 150
	if testing.Short() {
		runs = 30
	}
	for _, name := range mcmap.BenchmarkNames() {
		b, _ := mcmap.BenchmarkByName(name)
		sys, dropped, err := b.CompiledSample(benchmarks.MapClustered)
		if err != nil {
			t.Fatal(err)
		}
		prop, err := mcmap.EstimatorProposed.GraphWCRTs(sys, dropped)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := mcmap.EstimatorNaive.GraphWCRTs(sys, dropped)
		if err != nil {
			t.Fatal(err)
		}
		adhoc, err := mcmap.EstimatorAdhoc.GraphWCRTs(sys, dropped)
		if err != nil {
			t.Fatal(err)
		}
		wcsim, err := sim.WCSim{Runs: runs, Seed: 2, Scale: sim.AutoFaultScale(sys) * 6}.GraphWCRTs(sys, dropped)
		if err != nil {
			t.Fatal(err)
		}
		for _, cn := range b.CriticalNames {
			gi := sys.GraphIndex(cn)
			if prop[gi].IsInfinite() {
				continue
			}
			if naive[gi] < prop[gi] {
				t.Errorf("%s/%s: naive %v < proposed %v", name, cn, naive[gi], prop[gi])
			}
			if adhoc[gi] > prop[gi] {
				t.Errorf("%s/%s: adhoc %v > proposed %v", name, cn, adhoc[gi], prop[gi])
			}
			if wcsim[gi] > prop[gi] {
				t.Errorf("%s/%s: wcsim %v > proposed %v", name, cn, wcsim[gi], prop[gi])
			}
		}
	}
}

// TestSensitivityOnOptimizedDesign closes the loop: optimize, decode,
// then run sensitivity on the optimizer's best design.
func TestSensitivityOnOptimizedDesign(t *testing.T) {
	b, _ := mcmap.BenchmarkByName("synth-1")
	p, err := mcmap.NewProblem(b.Arch, b.Apps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcmap.Optimize(p, mcmap.DSEOptions{PopSize: 24, Generations: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Skip("no feasible design at smoke budget")
	}
	ph, err := p.Decode(res.Best.Genome)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.Compile(b.Arch, ph.Manifest.Apps, ph.Mapping, nil)
	if err != nil {
		t.Fatal(err)
	}
	slacks, err := core.Sensitivity(sys, ph.Dropped, core.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(slacks) != b.Apps.NumTasks() {
		t.Errorf("slack rows = %d, want %d", len(slacks), b.Apps.NumTasks())
	}
}

// TestTinyBandwidthMessageIsNeverFree: with a vanishing fabric bandwidth
// a 1000-byte cross-processor message takes longer than any
// representable time. Its delay must saturate at Infinity, so Algorithm
// 1 reports the design infeasible. An unsaturated transfer time
// overflows to a large negative delay, which makes the message free and
// the design feasible with a 5 us WCRT.
func TestTinyBandwidthMessageIsNeverFree(t *testing.T) {
	spec, err := model.ReadSpec(strings.NewReader(`{
		"architecture": {"name": "slow-link",
			"procs": [{"id": 0, "name": "p0"}, {"id": 1, "name": "p1"}],
			"fabric": {"bandwidth": 1e-300, "base_latency": 0}},
		"apps": {"graphs": [{"name": "g", "period": 1000, "reliability_bound": 1e-9,
			"tasks": [{"id": "g/a", "name": "a", "bcet": 1, "wcet": 2},
				{"id": "g/b", "name": "b", "bcet": 1, "wcet": 3}],
			"channels": [{"src": "g/a", "dst": "g/b", "size": 1000}]}]},
		"mapping": {"g/a": 0, "g/b": 1}}`))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := platform.Compile(spec.Architecture, spec.Apps, spec.Mapping, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Node("g/b")
	if len(b.In) != 1 || b.In[0].Delay != model.Infinity {
		t.Fatalf("message delay = %v, want Infinity", b.In)
	}
	rep, err := core.Analyze(sys, core.DropSet{}, core.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible() || !rep.WCRTOf("g").IsInfinite() {
		t.Fatalf("feasible=%v wcrt=%v, want an infeasible design with an infinite WCRT", rep.Feasible(), rep.WCRTOf("g"))
	}
	if _, err := sim.Run(sys, sim.Config{}); err != nil {
		t.Fatal(err)
	}
}
