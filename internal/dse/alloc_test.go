//go:build !race

// The race detector changes what allocates, so exact allocation counts
// hold only in normal builds.

package dse

import (
	"math/rand"
	"testing"

	"mcmap/internal/benchmarks"
)

// TestRepairAllocations pins Repair's allocations on DT-large, an exact
// count where wall time drifts: at most 1,000 per Repair of a random
// genome. It also pins NewProblem's allocations at 371, so the
// reliability table stays out of problem setup (it is built on first
// use).
func TestRepairAllocations(t *testing.T) {
	b, err := benchmarks.ByName("dt-large")
	if err != nil {
		t.Fatal(err)
	}
	p := benchProblem(t, "dt-large")
	if p.rel != nil {
		t.Fatal("NewProblem built the reliability table")
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
	if setup != 371 {
		t.Errorf("NewProblem(dt-large) allocates %.0f times, want 371", setup)
	}
}
