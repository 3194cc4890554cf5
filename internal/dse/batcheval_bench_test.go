package dse

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mcmap/internal/benchmarks"
	"mcmap/internal/workpool"
)

// batchBenchProblem builds a synthetic problem whose per-candidate
// analysis is expensive enough that evaluation cost, not bookkeeping,
// dominates the measurement.
func batchBenchProblem(b *testing.B) *Problem {
	b.Helper()
	bench := benchmarks.Synth(benchmarks.SynthConfig{
		Name: "batch-bench", Procs: 4,
		CriticalApps: 2, DroppableApps: 3,
		MinTasks: 5, MaxTasks: 8,
		Seed: 5,
	})
	p, err := NewProblem(bench.Arch, bench.Apps)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// makeBatchGeneration builds one generation shaped like a converging
// GA's: bases distinct random structures, each surrounded by variants
// that differ only in loci outside the compiled system — Keep bits
// (drop-set choice), Alloc bits (spare processors powered on) and
// don't-care parameters (replica-map tails, K under replication, the
// standby map under re-execution). This is the cohort structure the
// sysKey grouping exists to exploit: late-run generations are exactly
// such neighborhoods, because crossover and mutation keep resampling
// Keep/Alloc/don't-care loci around the archive's surviving mappings.
func makeBatchGeneration(p *Problem, rng *rand.Rand, bases, variants int) []*Genome {
	gen := make([]*Genome, 0, bases*variants)
	for len(gen) < bases*variants {
		base := p.RandomGenome(rng)
		p.Repair(base, rng)
		gen = append(gen, base)
		for v := 1; v < variants; v++ {
			c := base.Clone()
			switch v % 4 {
			case 1:
				// Phenotype duplicate: only don't-care loci move.
				scrambleDeadLoci(c, v)
			case 2:
				// New drop set over the same compiled system.
				c.Keep[v%len(c.Keep)] = !c.Keep[v%len(c.Keep)]
			case 3:
				// Same drop set, extra allocated processor: shares the
				// sibling's analysis, pays only its own power model.
				c.Alloc[v%len(c.Alloc)] = true
				scrambleDeadLoci(c, v)
			case 0:
				// Duplicate of the case-2 drop set: replays it outright.
				c.Keep[(v-2)%len(c.Keep)] = !c.Keep[(v-2)%len(c.Keep)]
				scrambleDeadLoci(c, v)
			}
			gen = append(gen, c)
		}
	}
	return gen[:bases*variants]
}

// scrambleDeadLoci rewrites the loci Decode never reads, exactly the
// set TestSysKeyIgnoresDontCareLoci pins: mutation churns these freely
// without changing the phenotype.
func scrambleDeadLoci(g *Genome, salt int) {
	for i := range g.Genes {
		ge := &g.Genes[i]
		switch {
		case ge.Replicas > 0: // replication: K, Map and the map tail are dead
			ge.K = salt
			for r := ge.Replicas; r < len(ge.ReplicaMap); r++ {
				ge.ReplicaMap[r]++
			}
		case ge.K > 0: // re-execution: replica fields are dead
			for r := range ge.ReplicaMap {
				ge.ReplicaMap[r]++
			}
			ge.VoterMap++
		default: // unhardened: only Map lives
			for r := range ge.ReplicaMap {
				ge.ReplicaMap[r]++
			}
			ge.VoterMap++
		}
	}
}

// indSignature flattens the fields of an evaluated Individual that the
// batched/per-candidate equivalence guarantee covers (everything except
// the scenario tally, which shared analyses legitimately shrink).
func indSignature(ind *Individual) string {
	return fmt.Sprintf("%x|%x|%v|%v|%v|%v|%v",
		ind.Power, ind.Objectives, ind.Feasible, ind.FeasibleNoDrop,
		ind.Service, ind.GraphWCRT, ind.Dropped)
}

// BenchmarkGenerationBatching gates the batched evaluation primitive on
// its target workload: one generation of same-system cohorts (see
// makeBatchGeneration), evaluated batched — buildBatchGroups plus
// evalGroup, one compile and assessment per group and one analysis
// per distinct drop set — and per-candidate — Problem.evaluate per
// genome — inside one timing window. Both sides run sequentially (the
// Workers=1 engine drain) in batch order, so every iteration pays the
// true first-sight cost the GA pays. Results are
// checked identical member for member
// (the TestBatchedMatchesPerCandidate guarantee); the reported
// batched_over_percand quotient is drift-immune like the other ratio
// gates and must stay at or under 0.83 — batching at least 1.2x faster
// where its sharing actually engages.
func BenchmarkGenerationBatching(b *testing.B) {
	p := batchBenchProblem(b)
	pool := workpool.New(1)
	defer pool.Close()
	ev, opts := newRunEvaluator(p, Options{Workers: 1, Pool: pool})
	isl := newIsland(0, p, opts, 1, ev)

	rng := rand.New(rand.NewSource(7))
	genomes := makeBatchGeneration(p, rng, 6, 8)

	runBatched := func() ([]*Individual, []error, int) {
		out := make([]*Individual, len(genomes))
		errs := make([]error, len(genomes))
		hits := 0
		for _, grp := range buildBatchGroups(p, genomes) {
			isl.evalGroup(grp, genomes, out, errs)
			hits += grp.hits
		}
		return out, errs, hits
	}
	runPerCand := func() ([]*Individual, []error) {
		out := make([]*Individual, len(genomes))
		errs := make([]error, len(genomes))
		for i := range genomes {
			out[i], errs[i] = p.evaluate(genomes[i], false, ev.cfg)
		}
		return out, errs
	}

	// Untimed correctness pass: the batched generation must actually
	// share work, and every member must evaluate identically both ways.
	outB, errsB, hits := runBatched()
	if hits == 0 {
		b.Fatal("crafted generation produced no batch sharing; the grouping is dead")
	}
	outP, errsP := runPerCand()
	for i := range genomes {
		if (errsB[i] == nil) != (errsP[i] == nil) {
			b.Fatalf("member %d: batched err %v, per-candidate err %v", i, errsB[i], errsP[i])
		}
		if errsB[i] != nil {
			continue
		}
		if gs, ws := indSignature(outB[i]), indSignature(outP[i]); gs != ws {
			b.Fatalf("member %d diverged:\n batched %s\n percand %s", i, gs, ws)
		}
	}

	var batchNs, percandNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		runBatched()
		t1 := time.Now()
		runPerCand()
		batchNs += t1.Sub(t0).Nanoseconds()
		percandNs += time.Since(t1).Nanoseconds()
	}
	b.ReportMetric(float64(batchNs)/float64(percandNs), "batched_over_percand")
	b.ReportMetric(float64(hits)/float64(len(genomes)), "shared_frac")
}
