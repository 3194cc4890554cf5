package platform_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// compileGoldenFile pins Compile's exact output over the bundled
// benchmarks: every node, edge, priority and ancestor bit.
var compileGoldenFile = filepath.Join("testdata", "compile_golden.json")

// signature renders everything a System holds: the hyperperiod, the
// hardened application set (every graph parameter, every task field,
// channels in order), every node field with its task by value and its
// task's position in its graph, the edges in order, the instance and
// graph node lists, the per-processor lists and the ancestor bits within
// each graph instance.
func signature(sys *platform.System) string {
	var b strings.Builder
	task := func(t *model.Task) {
		fmt.Fprintf(&b, "%q %q %d %d %d %d %d %t %d %q %q", t.ID, t.Name, t.BCET, t.WCET,
			t.VoteOverhead, t.DetectOverhead, t.Kind, t.Passive, t.ReExec, t.Origin, t.AllowedTypes)
	}
	fmt.Fprintf(&b, "H %d\n", sys.Hyperperiod)
	for _, g := range sys.Apps.Graphs {
		fmt.Fprintf(&b, "G %q %d %d %x %x\n", g.Name, g.Period, g.Deadline, g.ReliabilityBound, g.Service)
		for _, t := range g.Tasks {
			b.WriteString("T ")
			task(t)
			b.WriteByte('\n')
		}
		for _, c := range g.Channels {
			fmt.Fprintf(&b, "C %q %q %d\n", c.Src, c.Dst, c.Size)
		}
	}
	for i, n := range sys.Nodes {
		g := sys.Apps.Graphs[n.GraphIdx]
		fmt.Fprintf(&b, "N %d %d %t %d %d %d %d %d %t %d %d %d %d %d %d ", i, n.ID, n.Graph == g,
			slices.Index(g.Tasks, n.Task), n.GraphIdx, n.Instance, n.Release, n.AbsDeadline, n.NonPreemptive,
			n.Proc, n.Priority, n.BCET, n.WCET, n.DetectOverhead, n.Period)
		fmt.Fprintf(&b, "%d ", n.Deadline)
		task(n.Task)
		for _, e := range n.In {
			fmt.Fprintf(&b, " in(%d %d %d %d)", e.From, e.To, e.Size, e.Delay)
		}
		for _, e := range n.Out {
			fmt.Fprintf(&b, " out(%d %d %d %d)", e.From, e.To, e.Size, e.Delay)
		}
		b.WriteByte('\n')
	}
	for gi := range sys.GraphInstances {
		fmt.Fprintf(&b, "GN %d %v\n", gi, sys.GraphNodes[gi])
		for k, ids := range sys.GraphInstances[gi] {
			fmt.Fprintf(&b, "GI %d %d %v\n", gi, k, ids)
			for _, a := range ids {
				b.WriteString("A ")
				for _, d := range ids {
					b.WriteByte('0' + boolByte(sys.IsAncestor(a, d)))
				}
				b.WriteByte('\n')
			}
		}
	}
	pids := make([]model.ProcID, 0, len(sys.ProcNodes))
	for pid := range sys.ProcNodes {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		fmt.Fprintf(&b, "P %d %v\n", pid, sys.ProcNodes[pid])
	}
	return b.String()
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// randomPlan hardens about half of the tasks of apps, with every
// technique.
func randomPlan(apps *model.AppSet, rng *rand.Rand) hardening.Plan {
	plan := hardening.Plan{}
	for _, t := range apps.AllTasks() {
		switch rng.Intn(6) {
		case 0:
			plan[t.ID] = hardening.Decision{Technique: hardening.ReExecution, K: 1 + rng.Intn(3)}
		case 1:
			plan[t.ID] = hardening.Decision{Technique: hardening.ActiveReplication, Replicas: 2 + rng.Intn(2)}
		case 2:
			plan[t.ID] = hardening.Decision{Technique: hardening.PassiveReplication, Replicas: 3 + rng.Intn(2)}
		}
	}
	return plan
}

// platformVariant returns a copy of arch with the given fabric kind and,
// for variant 1, every odd processor non-preemptive, or, for variant 2,
// every even processor sped up by 1.5.
func platformVariant(arch *model.Architecture, kind model.FabricKind, variant int) *model.Architecture {
	a := *arch
	a.Procs = slices.Clone(arch.Procs)
	a.Fabric.Kind, a.Fabric.Shared = kind, false
	for i := range a.Procs {
		switch {
		case variant == 1 && i%2 == 1:
			a.Procs[i].NonPreemptive = true
		case variant == 2 && i%2 == 0:
			a.Procs[i].Speed = 1.5
		}
	}
	return &a
}

// compileRecords compiles one benchmark's designs — its reference plan
// and two seeded random plans, each under the three sample mappings —
// on every fabric kind and platform variant, and digests the three
// policies' Systems of each as one record.
func compileRecords(t testing.TB, name string) []string {
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	plans := []hardening.Plan{b.Plan, randomPlan(b.Apps, rng), randomPlan(b.Apps, rng)}
	policies := []platform.PriorityPolicy{platform.DefaultPolicy{}, platform.CriticalityPolicy{}, platform.DeadlineMonotonicPolicy{}}
	var out []string
	for pi, plan := range plans {
		man, err := hardening.Apply(b.Apps, plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []benchmarks.MappingStrategy{benchmarks.MapLoadBalance, benchmarks.MapClustered, benchmarks.MapSeededRandom} {
			mapping := b.SampleMapping(man, strat)
			for _, kind := range []model.FabricKind{model.FabricIdeal, model.FabricSharedBus, model.FabricCrossbar, model.FabricMesh} {
				for variant := 0; variant < 3; variant++ {
					arch := platformVariant(b.Arch, kind, variant)
					h := sha256.New()
					for _, pol := range policies {
						sys, err := platform.Compile(arch, man.Apps, mapping, pol)
						if err != nil {
							t.Fatal(err)
						}
						h.Write([]byte(signature(sys)))
					}
					out = append(out, fmt.Sprintf("plan%d/map%d/%v/v%d %x", pi, strat, kind, variant, h.Sum(nil)[:16]))
				}
			}
		}
	}
	return out
}

// TestCompileMatchesGolden compares Compile with digests recorded from
// the string-keyed compiler the index-level builder replaced
// (testdata/compile_golden.json is
// json.MarshalIndent(map[benchmark]compileRecords, "", " ") as that
// implementation produced it).
func TestCompileMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(compileGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, name := range benchmarks.Names() {
		t.Run(name, func(t *testing.T) {
			want := golden[name]
			got := compileRecords(t, name)
			if len(got) != len(want) {
				t.Fatalf("%d records, golden has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("record %d: %s, golden %s", i, got[i], want[i])
				}
			}
		})
	}
}
