package hardening_test

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
)

// applyGoldenFile pins Apply's exact output: the hardened graphs (task
// order, every task field, channel order) and every manifest map.
var applyGoldenFile = filepath.Join("testdata", "apply_golden.json")

// preHardenedApps is a specification that already contains hardening
// artifacts: replicas and a voter of a task x that the spec itself does
// not declare, next to ordinary tasks around them.
func preHardenedApps() *model.AppSet {
	ms := model.Millisecond
	g := model.NewTaskGraph("crit", 100*ms).SetCritical(1e-9)
	g.AddTask("in", 2*ms, 4*ms, ms, ms)
	for _, name := range []string{"x#r0", "x#r1", "x#r2"} {
		r := g.AddTask(name, 5*ms, 10*ms, ms, ms)
		r.Kind, r.Origin = model.KindReplica, "crit/x"
		r.AllowedTypes = []string{"risc"}
	}
	g.Task("crit/x#r2").Passive = true
	v := g.AddTask("x#v", ms, ms, 0, 0)
	v.Kind, v.Origin = model.KindVoter, "crit/x"
	g.AddTask("out", 3*ms, 6*ms, 2*ms, ms).ReExec = 2
	for _, r := range []string{"x#r0", "x#r1", "x#r2"} {
		g.AddChannel("in", r, 32)
		g.AddChannel(r, "x#v", 64)
	}
	g.AddChannel("x#v", "out", 16)
	g.AddChannel("in", "out", 8)
	soft := model.NewTaskGraph("soft", 50*ms).SetService(3)
	soft.AddTask("s0", ms, 2*ms, 0, 0)
	soft.AddTask("s1", ms, 3*ms, ms, 0)
	soft.AddChannel("s0", "s1", 128)
	soft.AddChannel("s0", "s1", 256)
	return model.NewAppSet(g, soft)
}

// randomPlan draws a decision for every task of apps: about a third stay
// unhardened (absent from the plan, or an explicit None), the rest are
// re-executed or actively or passively replicated.
func randomPlan(apps *model.AppSet, rng *rand.Rand) hardening.Plan {
	plan := hardening.Plan{}
	for _, t := range apps.AllTasks() {
		switch rng.Intn(6) {
		case 0:
		case 1:
			plan[t.ID] = hardening.Decision{}
		case 2:
			plan[t.ID] = hardening.Decision{Technique: hardening.ReExecution, K: 1 + rng.Intn(3)}
		case 3:
			plan[t.ID] = hardening.Decision{Technique: hardening.ActiveReplication, Replicas: 2 + rng.Intn(4)}
		default:
			plan[t.ID] = hardening.Decision{Technique: hardening.PassiveReplication, Replicas: 3 + rng.Intn(4)}
		}
	}
	return plan
}

// renderTask writes every field of a task.
func renderTask(b *strings.Builder, t *model.Task) {
	fmt.Fprintf(b, "T %q %q %d %d %d %d %d %t %d %q %q\n", t.ID, t.Name, t.BCET, t.WCET,
		t.VoteOverhead, t.DetectOverhead, t.Kind, t.Passive, t.ReExec, t.Origin, t.AllowedTypes)
}

// renderApps writes every graph of apps: its parameters, its tasks in
// order and its channels in order.
func renderApps(b *strings.Builder, apps *model.AppSet) {
	for _, g := range apps.Graphs {
		fmt.Fprintf(b, "G %q %d %d %x %x\n", g.Name, g.Period, g.Deadline, g.ReliabilityBound, g.Service)
		for _, t := range g.Tasks {
			renderTask(b, t)
		}
		for _, c := range g.Channels {
			fmt.Fprintf(b, "C %q %q %d\n", c.Src, c.Dst, c.Size)
		}
	}
}

// sortedIDs returns the keys of m in order.
func sortedIDs[V any](m map[model.TaskID]V) []model.TaskID {
	ids := make([]model.TaskID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// manifestDigest hashes everything Apply returns.
func manifestDigest(m *hardening.Manifest) string {
	var b strings.Builder
	renderApps(&b, m.Apps)
	for _, id := range sortedIDs(m.Plan) {
		d := m.Plan[id]
		fmt.Fprintf(&b, "P %q %d %d %d\n", id, d.Technique, d.K, d.Replicas)
	}
	for _, id := range sortedIDs(m.Instances) {
		fmt.Fprintf(&b, "I %q %q\n", id, m.Instances[id])
	}
	for _, id := range sortedIDs(m.Voter) {
		fmt.Fprintf(&b, "V %q %q\n", id, m.Voter[id])
	}
	for _, id := range sortedIDs(m.Dispatch) {
		fmt.Fprintf(&b, "D %q %q\n", id, m.Dispatch[id])
	}
	for _, id := range sortedIDs(m.Origin) {
		fmt.Fprintf(&b, "O %q %q\n", id, m.Origin[id])
	}
	sum := sha256.Sum256([]byte(b.String()))
	return fmt.Sprintf("%x", sum[:16])
}

// applyRecords applies the reference plan (for a benchmark) and 40
// seeded random plans to one application set, then 10 more random plans
// to hardened outputs (so the input already carries replicas, voters and
// dispatch steps), and digests each manifest.
func applyRecords(t testing.TB, name string) []string {
	var apps *model.AppSet
	var plans []hardening.Plan
	if name == "prehardened" {
		apps = preHardenedApps()
	} else {
		b, err := benchmarks.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps, plans = b.Apps, append(plans, b.Plan)
	}
	rng := rand.New(rand.NewSource(2024))
	for i := 0; i < 40; i++ {
		plans = append(plans, randomPlan(apps, rng))
	}
	var out []string
	for _, plan := range plans {
		m, err := hardening.Apply(apps, plan)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, manifestDigest(m))
	}
	for i := 0; i < 10; i++ {
		first, err := hardening.Apply(apps, randomPlan(apps, rng))
		if err != nil {
			t.Fatal(err)
		}
		m, err := hardening.Apply(first.Apps, randomPlan(first.Apps, rng))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, manifestDigest(m))
	}
	return out
}

// applyGoldenNames lists the inputs of the Apply golden.
func applyGoldenNames() []string {
	return append(benchmarks.Names(), "prehardened")
}

// TestApplyMatchesGolden compares Apply with digests recorded from the
// string-keyed replicate/removeTask implementation the index-level
// transform replaced (testdata/apply_golden.json is
// json.MarshalIndent(map[name]applyRecords(name), "", " ") as that
// implementation produced it).
func TestApplyMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(applyGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, name := range applyGoldenNames() {
		t.Run(name, func(t *testing.T) {
			want := golden[name]
			got := applyRecords(t, name)
			if len(got) != len(want) {
				t.Fatalf("%d records, golden has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("plan %d: digest %s, golden %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestApplyRejectsIDCollision: replicating a task whose replica ID is
// already a task of the set (the MC0127 fixture holds crit/a next to
// crit/a#r0) is an error, not a panic, and so are a voter and a
// dispatch step colliding with declared tasks.
func TestApplyRejectsIDCollision(t *testing.T) {
	spec, err := model.LoadSpec(filepath.Join("..", "validate", "testdata", "hardening_id_collision.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []hardening.Decision{
		{Technique: hardening.ActiveReplication, Replicas: 2},
		{Technique: hardening.PassiveReplication, Replicas: 3},
	} {
		if _, err := hardening.Apply(spec.Apps, hardening.Plan{"crit/a": d}); err == nil || !strings.Contains(err.Error(), `"crit/a#r0"`) {
			t.Errorf("%v of crit/a: error %v, want one naming crit/a#r0", d.Technique, err)
		}
	}
	if _, err := hardening.Apply(spec.Apps, hardening.Plan{"crit/a#r0": {Technique: hardening.ActiveReplication, Replicas: 2}}); err != nil {
		t.Errorf("replicating crit/a#r0 collides with nothing, got %v", err)
	}
	for _, suffix := range []string{"#v", "#d"} {
		g := model.NewTaskGraph("g", 100*model.Millisecond).SetCritical(1e-9)
		g.AddTask("a", 1, 2, 1, 1)
		g.AddTask("a"+suffix, 1, 2, 1, 1)
		plan := hardening.Plan{"g/a": {Technique: hardening.PassiveReplication, Replicas: 3}}
		if _, err := hardening.Apply(model.NewAppSet(g), plan); err == nil {
			t.Errorf("artifact g/a%s collides with a declared task, Apply accepted it", suffix)
		}
	}
}
