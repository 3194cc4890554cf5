//go:build !race

// The race detector changes what allocates, so exact allocation counts
// hold only in normal builds.

package dse

import (
	"math/rand"
	"runtime"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/platform"
)

// TestRepairAllocations pins Repair's allocations on DT-large, an exact
// count where wall time drifts: at most 1,000 per Repair of a random
// genome. It also pins NewProblem's allocations at exactly 318, so the
// reliability and compile tables stay out of problem setup (they are
// built on first use).
func TestRepairAllocations(t *testing.T) {
	b, err := benchmarks.ByName("dt-large")
	if err != nil {
		t.Fatal(err)
	}
	p := benchProblem(t, "dt-large")
	if p.rel != nil || p.cmp != nil {
		t.Fatal("NewProblem built the reliability or the compile table")
	}
	gen := rand.New(rand.NewSource(64))
	const runs = 64
	// AllocsPerRun calls the function once more to warm up.
	genomes := make([]*Genome, runs+1)
	for i := range genomes {
		genomes[i] = p.RandomGenome(gen)
	}
	rng := rand.New(rand.NewSource(1))
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		p.Repair(genomes[next], rng)
		next++
	})
	t.Logf("Repair: %.0f allocations per random DT-large genome", avg)
	if avg > 1000 {
		t.Errorf("Repair allocates %.0f times per genome, want <= 1000", avg)
	}
	setup := testing.AllocsPerRun(10, func() {
		if _, err := NewProblem(b.Arch, b.Apps); err != nil {
			t.Fatal(err)
		}
	})
	if setup != 318 {
		t.Errorf("NewProblem(dt-large) allocates %.0f times, want 318", setup)
	}
}

// TestEvaluateAllocations pins the allocations of the evaluation front
// end on DT-large exactly, where wall time drifts: the mean over 64
// seeded, repaired genomes of one Problem.Evaluate, and one
// platform.Compile of the benchmark's reference design under the
// load-balanced sample mapping. A per-candidate string map or Decode
// creeping back into either path shows here first. Evaluate works in a
// pooled workspace, so what is left is the Individual, its drop list
// and GraphWCRT copy, the System header and the priority permutation,
// plus the workspace's buffers growing to the largest design seen.
func TestEvaluateAllocations(t *testing.T) {
	p := benchProblem(t, "dt-large")
	gen := rand.New(rand.NewSource(64))
	const runs = 64
	// AllocsPerRun calls the function once more to warm up; that call
	// builds the problem's tables.
	genomes := make([]*Genome, runs+1)
	for i := range genomes {
		genomes[i] = p.RandomGenome(gen)
		p.Repair(genomes[i], gen)
	}
	next := 0
	avg := testing.AllocsPerRun(runs, func() {
		if _, err := p.Evaluate(genomes[next], false); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg != 8 {
		t.Errorf("Evaluate allocates %.0f times per repaired DT-large genome, want 8", avg)
	}

	b, err := benchmarks.ByName("dt-large")
	if err != nil {
		t.Fatal(err)
	}
	man, err := b.Hardened()
	if err != nil {
		t.Fatal(err)
	}
	mapping := b.SampleMapping(man, benchmarks.MapLoadBalance)
	compile := testing.AllocsPerRun(100, func() {
		if _, err := platform.Compile(b.Arch, man.Apps, mapping, nil); err != nil {
			t.Fatal(err)
		}
	})
	if compile != 55 {
		t.Errorf("Compile(dt-large reference design) allocates %.0f times, want 55", compile)
	}
}

// TestGenomeCopyAllocations pins one DT-large Genome.Clone and one
// Crossover exactly: the genome, its allocation, keep and gene
// sections, and one array for every gene's ReplicaMap.
func TestGenomeCopyAllocations(t *testing.T) {
	p := benchProblem(t, "dt-large")
	rng := rand.New(rand.NewSource(5))
	a, b := p.RandomGenome(rng), p.RandomGenome(rng)
	clone := testing.AllocsPerRun(100, func() { a.Clone() })
	if clone != 5 {
		t.Errorf("Genome.Clone(dt-large) allocates %.0f times, want 5", clone)
	}
	cross := testing.AllocsPerRun(100, func() { p.Crossover(a, b, rng) })
	if cross != 5 {
		t.Errorf("Crossover(dt-large) allocates %.0f times, want 5", cross)
	}
}

// TestOptimizeAllocatedBytes bounds the bytes one fixed-budget DT-large
// run allocates (pop 32 x 30 generations, seed 1, one worker), by
// runtime.MemStats.TotalAlloc: at most 12 MB, where a fresh System and
// Report per candidate took 73.5 MB.
func TestOptimizeAllocatedBytes(t *testing.T) {
	p := benchProblem(t, "dt-large")
	opts := Options{PopSize: 32, Generations: 30, Seed: 1, Workers: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Optimize(p, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("Optimize(dt-large, pop 32 x 30): %.1f MB, %d mallocs, %d GCs", mb, after.Mallocs-before.Mallocs, after.NumGC-before.NumGC)
	if mb > 12 {
		t.Errorf("Optimize(dt-large, pop 32 x 30) allocates %.1f MB, want <= 12", mb)
	}
}
