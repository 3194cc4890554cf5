package dse

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/power"
)

// sysSignature renders everything a System holds: the hyperperiod, the
// hardened application set (graph parameters, every task field, channels
// in order), every node field with its task by value and the task's
// position in its graph, the edges in order, the instance and graph node
// lists, the per-processor lists and every ancestor bit.
func sysSignature(sys *platform.System) string {
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
		fmt.Fprintf(&b, "N %d %d %t %d %d %d %d %d %t %d %d %d %d %d %d %d %d ", i, n.ID, n.Graph == g,
			slices.Index(g.Tasks, n.Task), n.GraphIdx, n.Instance, n.Release, n.AbsDeadline, n.NonPreemptive,
			n.Proc, n.Priority, n.Depth, n.BCET, n.WCET, n.DetectOverhead, n.Period, n.Deadline)
		task(n.Task)
		for _, e := range n.In {
			fmt.Fprintf(&b, " in(%d %d %d %d)", e.From, e.To, e.Size, e.Delay)
		}
		for _, e := range n.Out {
			fmt.Fprintf(&b, " out(%d %d %d %d)", e.From, e.To, e.Size, e.Delay)
		}
		b.WriteString("\nA ")
		for a := range sys.Nodes {
			b.WriteByte('0' + boolByte(sys.IsAncestor(platform.NodeID(a), n.ID)))
		}
		b.WriteByte('\n')
	}
	for gi := range sys.GraphInstances {
		fmt.Fprintf(&b, "GN %d %v\n", gi, sys.GraphNodes[gi])
		for k, ids := range sys.GraphInstances[gi] {
			fmt.Fprintf(&b, "GI %d %d %v\n", gi, k, ids)
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

// checkGeneCompile holds the gene path to the string path on g: the
// System compileGenes builds must equal platform.Compile(Decode(g)) in
// everything sysSignature renders, and fail exactly when Compile fails,
// with the same error; a structurally valid g's power must equal
// power.Expected bit for bit; and Evaluate's service and drop list must
// be Decode's.
func checkGeneCompile(t *testing.T, p *Problem, g *Genome) {
	t.Helper()
	ph, err := p.Decode(g)
	if err != nil {
		t.Fatal(err)
	}
	want, werr := p.Compile(ph)
	gs, gerr := p.compileGenes(g)
	if (werr != nil) != (gerr != nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("Compile error %v; gene path error %v", werr, gerr)
	}
	if werr == nil {
		if ws, ss := sysSignature(want), sysSignature(gs.sys); ws != ss {
			t.Fatalf("gene path System differs from Compile's:\n got %.2000s\nwant %.2000s", ss, ws)
		}
		if p.placementOK(g) {
			pw, err := power.Expected(p.Arch, ph.Manifest, ph.Mapping, ph.Alloc)
			if err != nil {
				t.Fatal(err)
			}
			got := power.Fold(p.Arch, p.geneUtil(g, gs), g.Alloc, nil)
			if math.Float64bits(got) != math.Float64bits(pw.Total) {
				t.Fatalf("gene power %x, power.Expected %x", got, pw.Total)
			}
		}
	}
	ind, err := p.Evaluate(g, false)
	if (err != nil) != (werr != nil && p.placementOK(g)) {
		t.Fatalf("Evaluate error %v; Compile error %v", err, werr)
	}
	if err != nil {
		return
	}
	var dropped []string
	for name := range ph.Dropped {
		dropped = append(dropped, name)
	}
	slices.Sort(dropped)
	if math.Float64bits(ind.Service) != math.Float64bits(ph.Service) || !slices.Equal(ind.Dropped, dropped) {
		t.Fatalf("service %v, dropped %v; Decode gives %v, %v", ind.Service, ind.Dropped, ph.Service, dropped)
	}
}

// typedProblem returns a bundled benchmark's problem with the processors
// of odd index typed "dsp" and one task restricted to them, or nil when
// the restriction makes the instance unsatisfiable.
func typedProblem(t *testing.T, name string, task int) *Problem {
	b, err := benchmarks.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < len(b.Arch.Procs); j += 2 {
		b.Arch.Procs[j].Type = "dsp"
	}
	tasks := b.Apps.AllTasks()
	tasks[task%len(tasks)].AllowedTypes = []string{"dsp"}
	p, err := NewProblem(b.Arch, b.Apps)
	if err != nil {
		return nil
	}
	return p
}

// TestGeneCompileMatchesCompile runs checkGeneCompile on 40 raw and 40
// repaired seeded genomes of every bundled benchmark, with the default
// caps and with raised ones, and on a benchmark whose task types make
// some placements incompatible.
func TestGeneCompileMatchesCompile(t *testing.T) {
	for _, name := range benchmarks.Names() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for _, raised := range []bool{false, true} {
				p := benchProblem(t, name)
				if raised {
					p.MaxK, p.MaxReplicas = 5, len(p.Arch.Procs)
				}
				for i := 0; i < 80; i++ {
					g := p.RandomGenome(rng)
					if i%2 == 1 {
						p.Repair(g, rng)
					}
					checkGeneCompile(t, p, g)
				}
			}
			if p := typedProblem(t, name, 3); p != nil {
				for i := 0; i < 40; i++ {
					g := p.RandomGenome(rng)
					if i%2 == 1 {
						p.Repair(g, rng)
					}
					checkGeneCompile(t, p, g)
				}
			}
		})
	}
}

// TestGeneCompileRaisedAfterFirstUse raises the caps after the compile
// table was built: variants beyond it are instantiated on the fly.
func TestGeneCompileRaisedAfterFirstUse(t *testing.T) {
	p := benchProblem(t, "cruise")
	rng := rand.New(rand.NewSource(8))
	checkGeneCompile(t, p, p.RandomGenome(rng))
	p.MaxK, p.MaxReplicas = 6, len(p.Arch.Procs)
	for i := 0; i < 40; i++ {
		g := p.RandomGenome(rng)
		for j := range g.Genes {
			if j%3 == 0 {
				g.Genes[j].Technique, g.Genes[j].K = hardening.ReExecution, p.MaxK
			} else if j%3 == 1 {
				g.Genes[j].Technique, g.Genes[j].Replicas = hardening.PassiveReplication, p.MaxReplicas
			}
		}
		p.Repair(g, rng)
		checkGeneCompile(t, p, g)
	}
}

// TestCompileTableConcurrentFirstUse has several goroutines compile
// genomes on a fresh problem at once, as the evaluation workers of a
// run's first generation do; under -race this checks the table build is
// synchronized, and every caller must get the System a sequentially used
// problem builds.
func TestCompileTableConcurrentFirstUse(t *testing.T) {
	p, ref := benchProblem(t, "dt-large"), benchProblem(t, "dt-large")
	rng := rand.New(rand.NewSource(3))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		g := p.RandomGenome(rng)
		ref.Repair(g, rng)
		want, err := ref.compileGenes(g)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.compileGenes(g)
			if err != nil || sysSignature(got.sys) != sysSignature(want.sys) {
				t.Errorf("concurrent first use built another System (error %v)", err)
			}
		}()
	}
	wg.Wait()
}

// TestNewProblemRejectsHardeningIDCollision: the specification that used
// to pass NewProblem and then panic Optimize on its first replication
// (crit/a next to crit/a#r0) is rejected up front with MC0127.
func TestNewProblemRejectsHardeningIDCollision(t *testing.T) {
	spec, err := model.LoadSpec(filepath.Join("..", "validate", "testdata", "hardening_id_collision.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProblem(spec.Architecture, spec.Apps); err == nil || !strings.Contains(err.Error(), "MC0127") {
		t.Fatalf("NewProblem: error %v, want MC0127", err)
	}
}
