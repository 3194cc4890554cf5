package validate

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/model"
)

// validArch builds a two-processor platform that passes every check.
func validArch() *model.Architecture {
	return &model.Architecture{
		Name: "duo",
		Procs: []model.Processor{
			{ID: 0, Name: "p0", Type: "cpu", StaticPower: 0.1, DynPower: 1, FaultRate: 1e-9},
			{ID: 1, Name: "p1", Type: "cpu", StaticPower: 0.1, DynPower: 1, FaultRate: 1e-9},
		},
		Fabric: model.Fabric{Bandwidth: 100, BaseLatency: 10},
	}
}

// validApps builds one critical graph (reachable bound) that passes
// every check.
func validApps() *model.AppSet {
	g := model.NewTaskGraph("app", 100*model.Millisecond).SetCritical(1e-9)
	g.AddTask("a", 1000, 10000, 100, 100)
	g.AddTask("b", 1000, 10000, 100, 100)
	g.AddChannel("a", "b", 64)
	return model.NewAppSet(g)
}

// wantCode asserts that the result contains the code at the severity.
func wantCode(t *testing.T, r *Result, code string, sev Severity) {
	t.Helper()
	for _, d := range r.ByCode(code) {
		if d.Severity == sev {
			return
		}
	}
	t.Errorf("missing %s at severity %v in:\n%s", code, sev, r)
}

func TestValidSystemIsClean(t *testing.T) {
	r := CheckSystem(validArch(), validApps(), nil, DefaultLimits())
	if len(r.Diags) != 0 {
		t.Errorf("valid system produced diagnostics:\n%s", r)
	}
}

func TestMC0101MissingArchitecture(t *testing.T) {
	wantCode(t, CheckSystem(nil, validApps(), nil, DefaultLimits()), "MC0101", Error)
	wantCode(t, CheckSystem(&model.Architecture{}, validApps(), nil, DefaultLimits()), "MC0101", Error)
	wantCode(t, CheckSpec(nil), "MC0101", Error)
}

func TestMC0102DuplicateProcessor(t *testing.T) {
	a := validArch()
	a.Procs[1].ID = 0
	wantCode(t, CheckSystem(a, validApps(), nil, DefaultLimits()), "MC0102", Error)
	a = validArch()
	a.Procs[1].Name = "p0"
	wantCode(t, CheckSystem(a, validApps(), nil, DefaultLimits()), "MC0102", Error)
}

func TestMC0103BadProcessorParameters(t *testing.T) {
	a := validArch()
	a.Procs[0].FaultRate = -1
	wantCode(t, CheckSystem(a, validApps(), nil, DefaultLimits()), "MC0103", Error)
	a = validArch()
	a.Procs[0].Speed = -2
	wantCode(t, CheckSystem(a, validApps(), nil, DefaultLimits()), "MC0103", Error)
}

func TestMC0104BadFabric(t *testing.T) {
	a := validArch()
	a.Fabric.Bandwidth = -1
	wantCode(t, CheckSystem(a, validApps(), nil, DefaultLimits()), "MC0104", Error)
	a = validArch()
	a.Fabric.MeshWidth = -3
	wantCode(t, CheckSystem(a, validApps(), nil, DefaultLimits()), "MC0104", Error)
}

func TestMC0105EmptySetAndGraph(t *testing.T) {
	wantCode(t, CheckSystem(validArch(), nil, nil, DefaultLimits()), "MC0105", Error)
	wantCode(t, CheckSystem(validArch(), &model.AppSet{}, nil, DefaultLimits()), "MC0105", Error)
	empty := model.NewTaskGraph("empty", model.Second)
	wantCode(t, CheckSystem(validArch(), model.NewAppSet(empty), nil, DefaultLimits()), "MC0105", Error)
	dup := validApps()
	dup.Graphs = append(dup.Graphs, validApps().Graphs[0])
	wantCode(t, CheckSystem(validArch(), dup, nil, DefaultLimits()), "MC0105", Error)
}

func TestMC0106BadPeriodAndDeadline(t *testing.T) {
	apps := validApps()
	apps.Graphs[0].Period = 0
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0106", Error)
	apps = validApps()
	apps.Graphs[0].Deadline = -1
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0106", Error)
	apps = validApps()
	apps.Graphs[0].Deadline = apps.Graphs[0].Period * 2
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0106", Warning)
}

func TestMC0107DuplicateTaskIDs(t *testing.T) {
	apps := validApps()
	g := apps.Graphs[0]
	clone := *g.Tasks[0]
	g.Tasks = append(g.Tasks, &clone) // bypass attach, which would panic
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0107", Error)

	// The same ID in two different graphs.
	apps = validApps()
	other := model.NewTaskGraph("other", 50*model.Millisecond).SetService(1)
	other.AddTask("x", 100, 200, 0, 0)
	other.Tasks[0].ID = apps.Graphs[0].Tasks[0].ID
	apps.Graphs = append(apps.Graphs, other)
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0107", Error)
}

func TestMC0108BadExecutionTimes(t *testing.T) {
	apps := validApps()
	apps.Graphs[0].Tasks[0].BCET = 20000 // > wcet 10000
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0108", Error)
	apps = validApps()
	apps.Graphs[0].Tasks[0].WCET = -5
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0108", Error)
}

func TestMC0109BadOverheads(t *testing.T) {
	apps := validApps()
	apps.Graphs[0].Tasks[0].DetectOverhead = -1
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0109", Error)
	apps = validApps()
	apps.Graphs[0].Tasks[0].ReExec = -2
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0109", Error)
}

func TestMC0110BadChannels(t *testing.T) {
	apps := validApps()
	apps.Graphs[0].AddChannel("a", "ghost", 8)
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0110", Error)
	apps = validApps()
	apps.Graphs[0].AddChannel("a", "a", 8)
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0110", Error)
	apps = validApps()
	apps.Graphs[0].Channels[0].Size = -1
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0110", Error)
}

func TestMC0111Cycle(t *testing.T) {
	apps := validApps()
	apps.Graphs[0].AddChannel("b", "a", 8)
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0111", Error)
}

func TestMC0112HyperperiodOverflow(t *testing.T) {
	apps := validApps()
	other := model.NewTaskGraph("other", 2147483629).SetService(1) // coprime to the prime below
	other.AddTask("x", 100, 200, 0, 0)
	apps.Graphs[0].Period = 2147483647
	apps.Graphs = append(apps.Graphs, other)
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0112", Error)
}

// TestMC0126UnrolledJobBudget pins the job-count cap: a small spec
// whose periods unroll to ~100k jobs (the committed fixture) is an
// Error before anything compiles, unmapped sets are charged the DSE's
// worst-case hardening, and the count saturates instead of overflowing.
func TestMC0126UnrolledJobBudget(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "oversized_hyperperiod.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := model.ReadSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	r := CheckSpec(spec)
	wantCode(t, r, "MC0126", Error)
	if !strings.Contains(r.String(), "99992 jobs") {
		t.Errorf("diagnostic does not state the job count:\n%s", r)
	}

	// 700 one-task instances plus one: within budget once mapped, over
	// it at up to 4 replicas + voter + dispatch per task.
	apps := validApps()
	apps.Graphs[0].Tasks = apps.Graphs[0].Tasks[:1]
	apps.Graphs[0].Channels = nil
	slow := model.NewTaskGraph("slow", 700*apps.Graphs[0].Period).SetService(1)
	slow.AddTask("s", 1000, 2000, 0, 0)
	apps.Graphs = append(apps.Graphs, slow)
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0126", Error)
	if d := CheckSystem(validArch(), apps, fullMapping(apps, 0), DefaultLimits()).ByCode("MC0126"); len(d) != 0 {
		t.Errorf("mapped set of 701 jobs flagged: %v", d)
	}

	// Counts past int64 saturate: 2^62 instances times 6 overflow the
	// product, two graphs of 2^62 jobs each overflow the sum.
	one := func(name string) *model.TaskGraph {
		g := model.NewTaskGraph(name, 1).SetService(1)
		g.AddTask("t", 0, 1, 0, 0)
		return g
	}
	for _, tc := range []struct {
		apps   *model.AppSet
		expand int64
	}{
		{model.NewAppSet(one("a")), 6},
		{model.NewAppSet(one("a"), one("b")), 1},
	} {
		if got := unrolledJobs(tc.apps, 1<<62, tc.expand); got != math.MaxInt64 {
			t.Errorf("unrolledJobs = %d, want saturation at MaxInt64", got)
		}
	}
}

// TestMC0127HardeningIDCollision pins the artifact-ID rule: a task
// whose ID is another task's replica ID (for any replica index, since
// callers raise the replica cap after validation), voter ID or dispatch
// ID is an Error, mapped or not, so hardening can never create a second
// task with one ID. The committed fixture holds crit/a next to
// crit/a#r0. A pre-hardened set, whose artifacts stand without their
// original, and IDs that merely look similar stay clean.
func TestMC0127HardeningIDCollision(t *testing.T) {
	spec, err := model.LoadSpec(filepath.Join("testdata", "hardening_id_collision.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := CheckSpec(spec)
	wantCode(t, r, "MC0127", Error)
	if !strings.Contains(r.String(), `replica 0 ID of task "crit/a"`) {
		t.Errorf("diagnostic does not name the colliding task:\n%s", r)
	}

	for _, name := range []string{"a#r12", "a#v", "a#d"} {
		apps := validApps()
		apps.Graphs[0].AddTask(name, 1000, 10000, 100, 100)
		wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0127", Error)
		wantCode(t, CheckSystem(validArch(), apps, fullMapping(apps, 0), DefaultLimits()), "MC0127", Error)
	}
	for _, names := range [][]string{
		{"x#r0", "x#r1", "x#v"}, // pre-hardened: no x
		{"a#r01", "a#r-1", "a#rx", "a#r", "a#vv", "b#r0#"},
	} {
		apps := validApps()
		for _, name := range names {
			apps.Graphs[0].AddTask(name, 1000, 10000, 100, 100)
		}
		if d := CheckSystem(validArch(), apps, nil, DefaultLimits()).ByCode("MC0127"); len(d) != 0 {
			t.Errorf("%v flagged: %v", names, d)
		}
	}
}

func TestMC0113Eq1Overflow(t *testing.T) {
	apps := validApps()
	t0 := apps.Graphs[0].Tasks[0]
	t0.WCET = 1 << 59
	t0.BCET = 0
	t0.ReExec = 3
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0113", Error)

	apps = validApps()
	t0 = apps.Graphs[0].Tasks[0]
	t0.WCET = 1 << 58 // overflows only at the DSE cap k=3
	t0.BCET = 0
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0113", Warning)
}

func TestMC0114ImpossibleDeadline(t *testing.T) {
	apps := validApps()
	apps.Graphs[0].Tasks[0].WCET = 200 * model.Millisecond // period is 100ms
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0114", Error)
}

func TestMC0115NoCompatibleProcessor(t *testing.T) {
	apps := validApps()
	apps.Graphs[0].Tasks[0].AllowedTypes = []string{"dsp"}
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0115", Error)
}

func TestMC0116PlatformOverUtilized(t *testing.T) {
	g := model.NewTaskGraph("heavy", 100*model.Millisecond).SetCritical(1e-9)
	for _, name := range []string{"a", "b", "c"} {
		g.AddTask(name, 1000, 80*model.Millisecond, 0, 0) // 3 x 0.8 > 2 processors
	}
	r := CheckSystem(validArch(), model.NewAppSet(g), nil, DefaultLimits())
	wantCode(t, r, "MC0116", Error)
}

func TestMC0117UnreachableReliability(t *testing.T) {
	apps := validApps()
	apps.Graphs[0].ReliabilityBound = 1e-30
	r := CheckSystem(validArch(), apps, nil, DefaultLimits())
	wantCode(t, r, "MC0117", Error)

	// Confirm the exported helper agrees and reports a positive bound.
	ok, rate := GraphReliabilityReachable(validArch(), apps.Graphs[0], DefaultLimits())
	if ok || rate <= 0 {
		t.Errorf("GraphReliabilityReachable = %v, %g; want unreachable with a positive rate", ok, rate)
	}
}

func TestMC0118ServiceConsistency(t *testing.T) {
	apps := validApps()
	soft := model.NewTaskGraph("soft", 50*model.Millisecond).SetService(0)
	soft.AddTask("x", 100, 200, 0, 0)
	apps.Graphs = append(apps.Graphs, soft)
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0118", Warning)

	apps = validApps()
	neg := model.NewTaskGraph("neg", 50*model.Millisecond)
	neg.AddTask("x", 100, 200, 0, 0)
	neg.Service = -3
	apps.Graphs = append(apps.Graphs, neg)
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0118", Error)

	apps = validApps()
	apps.Graphs[0].Service = 7 // ignored on a critical graph
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0118", Info)
}

// replicatedApps builds a transformed graph: two active replicas of
// "app/a" plus a voter, and a plain successor task.
func replicatedApps() *model.AppSet {
	g := model.NewTaskGraph("app", 100*model.Millisecond).SetCritical(1e-6)
	orig := model.MakeTaskID("app", "a")
	for i, name := range []string{"a#r0", "a#r1"} {
		tk := g.AddTask(name, 1000, 10000, 100, 100)
		tk.Kind = model.KindReplica
		tk.Origin = orig
		_ = i
	}
	v := g.AddTask("a#vote", 0, 100, 0, 0)
	v.Kind = model.KindVoter
	v.Origin = orig
	g.AddTask("b", 1000, 10000, 100, 100)
	g.AddChannel("a#r0", "a#vote", 8)
	g.AddChannel("a#r1", "a#vote", 8)
	g.AddChannel("a#vote", "b", 8)
	return model.NewAppSet(g)
}

func TestMC0119VoterWiring(t *testing.T) {
	// Replicas without a voter.
	apps := replicatedApps()
	g := apps.Graphs[0]
	g.Tasks = g.Tasks[:2] // drop voter and successor
	g.Channels = g.Channels[:0]
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0119", Error)

	// Voter with a single replica.
	apps = replicatedApps()
	g = apps.Graphs[0]
	g.Tasks = append(g.Tasks[:1], g.Tasks[2:]...) // drop replica a#r1
	g.Channels = g.Channels[1:]
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0119", Error)

	// Passive replica without a dispatch step.
	apps = replicatedApps()
	apps.Graphs[0].Tasks[1].Passive = true
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0119", Error)

	// Hardening artifact without an origin.
	apps = replicatedApps()
	apps.Graphs[0].Tasks[0].Origin = ""
	wantCode(t, CheckSystem(validArch(), apps, nil, DefaultLimits()), "MC0119", Error)
}

// fullMapping maps every task of apps to the given processor.
func fullMapping(apps *model.AppSet, pid model.ProcID) model.Mapping {
	m := model.Mapping{}
	for _, t := range apps.AllTasks() {
		m[t.ID] = pid
	}
	return m
}

func TestMC0120Unmapped(t *testing.T) {
	apps := validApps()
	m := fullMapping(apps, 0)
	delete(m, apps.Graphs[0].Tasks[0].ID)
	wantCode(t, CheckSystem(validArch(), apps, m, DefaultLimits()), "MC0120", Error)
}

func TestMC0121UnknownProcessor(t *testing.T) {
	apps := validApps()
	m := fullMapping(apps, 0)
	m[apps.Graphs[0].Tasks[0].ID] = 99
	wantCode(t, CheckSystem(validArch(), apps, m, DefaultLimits()), "MC0121", Error)
}

func TestMC0122IncompatibleType(t *testing.T) {
	a := validArch()
	a.Procs[1].Type = "dsp"
	apps := validApps()
	apps.Graphs[0].Tasks[0].AllowedTypes = []string{"dsp"}
	m := fullMapping(apps, 0) // everything on the cpu, including the dsp-only task
	wantCode(t, CheckSystem(a, apps, m, DefaultLimits()), "MC0122", Error)
}

func TestMC0123ColocatedReplicas(t *testing.T) {
	apps := replicatedApps()
	m := fullMapping(apps, 0) // both active replicas on processor 0
	wantCode(t, CheckSystem(validArch(), apps, m, DefaultLimits()), "MC0123", Error)

	// Distinct placement is clean.
	m[model.MakeTaskID("app", "a#r1")] = 1
	r := CheckSystem(validArch(), apps, m, DefaultLimits())
	if len(r.ByCode("MC0123")) != 0 {
		t.Errorf("distinct replicas flagged:\n%s", r)
	}
}

func TestMC0124StaleMappingEntry(t *testing.T) {
	apps := validApps()
	m := fullMapping(apps, 0)
	m["ghost/task"] = 0
	wantCode(t, CheckSystem(validArch(), apps, m, DefaultLimits()), "MC0124", Warning)
}

func TestMC0125OverUtilizedProcessor(t *testing.T) {
	g := model.NewTaskGraph("heavy", 100*model.Millisecond).SetCritical(1e-9)
	g.AddTask("a", 1000, 90*model.Millisecond, 0, 0)
	g.AddTask("b", 1000, 90*model.Millisecond, 0, 0)
	apps := model.NewAppSet(g)
	m := fullMapping(apps, 0) // 1.8 utilization on processor 0
	wantCode(t, CheckSystem(validArch(), apps, m, DefaultLimits()), "MC0125", Warning)
}

func TestDSEParamCodes(t *testing.T) {
	arch := validArch()
	cases := []struct {
		name string
		p    DSEParams
		code string
		sev  Severity
	}{
		{"maxk-zero", DSEParams{MaxK: 0, MaxReplicas: 4}, "MC0201", Error},
		{"maxk-huge", DSEParams{MaxK: 99, MaxReplicas: 4}, "MC0201", Warning},
		{"replicas-one", DSEParams{MaxK: 3, MaxReplicas: 1}, "MC0202", Error},
		{"replicas-over-procs", DSEParams{MaxK: 3, MaxReplicas: 9}, "MC0202", Warning},
		{"negative-pop", DSEParams{MaxK: 3, MaxReplicas: 4, PopSize: -1}, "MC0203", Warning},
		{"mutation-rate", DSEParams{MaxK: 3, MaxReplicas: 4, MutationRate: 1.5}, "MC0204", Warning},
		{"negative-islands", DSEParams{MaxK: 3, MaxReplicas: 4, Islands: -2}, "MC0205", Warning},
		{"islands-over-pop", DSEParams{MaxK: 3, MaxReplicas: 4, PopSize: 4, Islands: 8}, "MC0205", Warning},
		{"track-vs-disable", DSEParams{MaxK: 3, MaxReplicas: 4, TrackDroppingGain: true, DisableDropping: true}, "MC0206", Warning},
		{"negative-workers", DSEParams{MaxK: 3, MaxReplicas: 4, Workers: -4}, "MC0207", Warning},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCode(t, CheckDSEParams(arch, tc.p), tc.code, tc.sev)
		})
	}
	clean := CheckDSEParams(arch, DSEParams{MaxK: 3, MaxReplicas: 2, PopSize: 100, Generations: 300, MutationRate: 0.08})
	if len(clean.Diags) != 0 {
		t.Errorf("paper-default options produced diagnostics:\n%s", clean)
	}
}

// TestBenchmarksValidateClean is the acceptance gate: every bundled
// benchmark must pass validation without a single Error diagnostic.
func TestBenchmarksValidateClean(t *testing.T) {
	for _, name := range benchmarks.Names() {
		t.Run(name, func(t *testing.T) {
			b, err := benchmarks.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			r := CheckSystem(b.Arch, b.Apps, nil, DefaultLimits())
			if r.HasErrors() {
				t.Errorf("benchmark %s fails validation:\n%s", name, r)
			}
			for _, d := range r.Diags {
				if d.Severity == Warning {
					t.Logf("warning: %s", d)
				}
			}
		})
	}
}

// TestModelTestdataValidatesClean checks the specs committed as model
// test data against every check, the job-count cap (MC0126) included.
// (The spec inside the daemon's restart fixture is validated when
// TestResumeFromEarlierReleaseDataDir reloads it.)
func TestModelTestdataValidatesClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "model", "testdata", "spec_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no model specs found: %v", err)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := model.ReadSpec(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if r := CheckSpec(spec); r.HasErrors() {
			t.Errorf("%s fails validation:\n%s", path, r)
		}
	}
}

func TestResultErrAndFormat(t *testing.T) {
	r := CheckSystem(nil, nil, nil, DefaultLimits())
	if err := r.Err(); err == nil {
		t.Fatal("Err() = nil for a failing result")
	} else if !strings.Contains(err.Error(), "MC0101") {
		t.Errorf("Err() misses the code: %v", err)
	}
	if !strings.Contains(r.String(), "error MC0101") {
		t.Errorf("Format misses the severity prefix:\n%s", r)
	}
	clean := CheckSystem(validArch(), validApps(), nil, DefaultLimits())
	if err := clean.Err(); err != nil {
		t.Errorf("Err() = %v for a clean result", err)
	}
}
