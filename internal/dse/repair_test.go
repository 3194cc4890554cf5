package dse

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/reliability"
)

// repairGoldenFile pins Repair's exact behaviour on every bundled
// benchmark: the repaired genome, the verdict and the RNG draws.
var repairGoldenFile = filepath.Join("testdata", "repair_golden.json")

// benchProblem builds the DSE problem of a bundled benchmark.
func benchProblem(t testing.TB, name string) *Problem {
	t.Helper()
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(b.Arch, b.Apps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// repairRecords repairs 100 seeded RandomGenomes and 100
// Crossover+Mutate offspring of SeedGenomes of one benchmark, all on one
// counting RNG stream, and renders each result as
// "<Key128 hi><Key128 lo> <verdict> <draws>". The genomes come from a
// separate stream, so the draw count is Repair's alone.
func repairRecords(t testing.TB, name string) []string {
	p := benchProblem(t, name)
	gen := rand.New(rand.NewSource(2026))
	src := newCountingSource(11)
	rng := rand.New(src)
	seeds := p.SeedGenomes()
	out := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		var g *Genome
		if i < 100 {
			g = p.RandomGenome(gen)
		} else {
			g = p.Crossover(seeds[gen.Intn(len(seeds))], seeds[gen.Intn(len(seeds))], gen)
			p.Mutate(g, 0.15, gen)
		}
		before := src.draws
		ok := p.Repair(g, rng)
		k := g.Key128()
		out = append(out, fmt.Sprintf("%016x%016x %t %d", k.Hi, k.Lo, ok, src.draws-before))
	}
	return out
}

// TestRepairMatchesGolden compares Repair against records captured from
// the Decode+Assess repair loop it replaced (testdata/repair_golden.json
// is json.MarshalIndent(map[benchmark]repairRecords, "", " ") as that
// implementation produced it). A change to which loci repair touches,
// or to how many numbers it draws and when, fails here directly rather
// than only through the GA trajectory goldens.
func TestRepairMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile(repairGoldenFile)
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
			got := repairRecords(t, name)
			if len(got) != len(want) {
				t.Fatalf("%d records, golden has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("genome %d: got %q, golden %q", i, got[i], want[i])
				}
			}
		})
	}
}

// checkGeneReliability compares the gene-level reliability check with
// Decode plus reliability.Assess on g: both fail or neither does, they
// list the same violated graphs in the same order, and every graph's
// failure rate is bit-identical.
func checkGeneReliability(t *testing.T, p *Problem, g *Genome) {
	t.Helper()
	ph, err := p.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	as, aerr := reliability.Assess(p.Arch, ph.Manifest, ph.Mapping)
	viol, verr := p.violations(g, nil)
	if (aerr != nil) != (verr != nil) {
		t.Fatalf("Assess error: %v; gene-level error: %v", aerr, verr)
	}
	if aerr != nil {
		return
	}
	rt := p.relTable()
	var names []string
	for _, v := range viol {
		names = append(names, rt.graphs[v].g.Name)
	}
	if !slices.Equal(names, as.Violations) {
		t.Fatalf("gene-level violations %v, Assess %v", names, as.Violations)
	}
	for v := range rt.graphs {
		rate, _, err := p.graphVerdict(g, v)
		if err != nil {
			t.Fatal(err)
		}
		name := rt.graphs[v].g.Name
		if want := as.GraphFailureRate[name]; math.Float64bits(rate) != math.Float64bits(want) {
			t.Fatalf("graph %s: gene-level failure rate %x, Assess %x", name, rate, want)
		}
	}
}

// TestGeneReliabilityManyReplicas covers replica counts above 10, where
// Assess folds replicas in lexical ID order (#r1 < #r10 < #r2), on a
// platform whose processors fail at different rates, so the fold order
// shows in the result's low bits.
func TestGeneReliabilityManyReplicas(t *testing.T) {
	arch := &model.Architecture{Name: "wide", Fabric: model.Fabric{Bandwidth: 100, BaseLatency: 20}}
	for i := 0; i < 12; i++ {
		arch.Procs = append(arch.Procs, model.Processor{ID: model.ProcID(i), Name: fmt.Sprintf("p%d", i),
			StaticPower: 0.2, DynPower: 1, FaultRate: 1e-6 * float64(1+i*i)})
	}
	ms := model.Millisecond
	crit := model.NewTaskGraph("crit", 100*ms).SetCritical(1e-9)
	crit.AddTask("a", 5*ms, 10*ms, ms, ms)
	crit.AddTask("b", 5*ms, 10*ms, ms, ms)
	crit.AddChannel("a", "b", 64)
	p, err := NewProblem(arch, model.NewAppSet(crit))
	if err != nil {
		t.Fatal(err)
	}
	p.MaxReplicas = 12
	rng := rand.New(rand.NewSource(5))
	orderMatters := false
	for trial := 0; trial < 20; trial++ {
		g := p.RandomGenome(rng)
		ge := &g.Genes[0]
		ge.Technique, ge.Replicas = hardening.ActiveReplication, 11+trial%2
		rng.Shuffle(len(ge.ReplicaMap), func(i, j int) { ge.ReplicaMap[i], ge.ReplicaMap[j] = ge.ReplicaMap[j], ge.ReplicaMap[i] })
		checkGeneReliability(t, p, g)
		// The check above only means something if folding the replicas
		// in index order would have given other bits. Gene 0's failure
		// probabilities are the table's first row.
		byIndex := make([]float64, ge.Replicas)
		for r := range byIndex {
			byIndex[r] = p.relTable().fail[p.Arch.ProcIndex(ge.ReplicaMap[r])]
		}
		byID := make([]float64, 0, ge.Replicas)
		for _, pid := range replicasByID(ge.ReplicaMap[:ge.Replicas]) {
			byID = append(byID, p.relTable().fail[p.Arch.ProcIndex(pid)])
		}
		if reliability.TaskUnsafeProb(ge.Technique, 0, byIndex) != reliability.TaskUnsafeProb(ge.Technique, 0, byID) {
			orderMatters = true
		}
	}
	if !orderMatters {
		t.Fatal("no trial distinguishes index order from ID order: the test data is too regular")
	}
}

// TestGeneReliabilityPreHardenedSpec covers a specification that is
// already hardened: its voter is a task of its own, which Assess leaves
// out of the fold unless the DSE replicates it.
func TestGeneReliabilityPreHardenedSpec(t *testing.T) {
	arch := &model.Architecture{Name: "quad", Fabric: model.Fabric{Bandwidth: 100, BaseLatency: 20}}
	for i := 0; i < 4; i++ {
		arch.Procs = append(arch.Procs, model.Processor{ID: model.ProcID(i), Name: fmt.Sprintf("p%d", i),
			StaticPower: 0.2, DynPower: 1, FaultRate: 1e-6 * float64(1+i)})
	}
	ms := model.Millisecond
	crit := model.NewTaskGraph("crit", 100*ms).SetCritical(1e-9)
	for _, name := range []string{"x#r0", "x#r1"} {
		r := crit.AddTask(name, 5*ms, 10*ms, ms, ms)
		r.Kind, r.Origin = model.KindReplica, "crit/x"
	}
	v := crit.AddTask("x#v", ms, ms, 0, 0)
	v.Kind, v.Origin = model.KindVoter, "crit/x"
	crit.AddChannel("x#r0", "x#v", 64)
	crit.AddChannel("x#r1", "x#v", 64)
	p, err := NewProblem(arch, model.NewAppSet(crit))
	if err != nil {
		t.Fatal(err)
	}
	voter := slices.Index(p.TaskIDs(), "crit/x#v")
	rng := rand.New(rand.NewSource(9))
	for _, tech := range []hardening.Technique{hardening.None, hardening.ReExecution, hardening.ActiveReplication} {
		for trial := 0; trial < 10; trial++ {
			g := p.RandomGenome(rng)
			g.Genes[voter].Technique = tech
			checkGeneReliability(t, p, g)
		}
	}
}

// TestRelTableConcurrentFirstUse has several goroutines reach a fresh
// problem's lazily built reliability table at once, as the evaluation
// workers of a run's first generation do; under -race this checks the
// build is synchronized, and every caller must see the verdicts a
// sequentially used problem gives.
func TestRelTableConcurrentFirstUse(t *testing.T) {
	p, ref := benchProblem(t, "dt-large"), benchProblem(t, "dt-large")
	rng := rand.New(rand.NewSource(3))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		g := p.RandomGenome(rng)
		want, err := ref.violations(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := p.violations(g, nil); err != nil || !slices.Equal(got, want) {
				t.Errorf("violations %v, %v; want %v", got, err, want)
			}
		}()
	}
	wg.Wait()
}
