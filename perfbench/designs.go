package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/dse"
	"mcmap/internal/model"
)

// design is one hardened, mapped candidate of a paper benchmark: the
// input of one Compile + Analyze verdict.
type design struct {
	bench   string
	arch    *model.Architecture
	apps    *model.AppSet
	mapping model.Mapping
	dropped core.DropSet
	// converged marks a member of a GA run's final front.
	converged bool
}

// benchProblem is one paper benchmark's optimization instance.
type benchProblem struct {
	name string
	p    *dse.Problem
}

// paperProblems builds the DSE instances of the five paper benchmarks;
// dse.NewProblem runs the static pre-flight on each.
func paperProblems() ([]benchProblem, error) {
	var out []benchProblem
	for _, name := range benchmarks.Names() {
		b, err := benchmarks.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := dse.NewProblem(b.Arch, b.Apps)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, benchProblem{name, p})
	}
	return out, nil
}

// poolShape is how many designs of each kind a pool draws per benchmark.
type poolShape struct {
	gaRuns, gaPop, gaGens int
	offspring, random     int
}

// designPool generates a seeded, shuffled set of distinct designs from
// every benchmark. Each benchmark contributes the fronts of short GA runs
// (converged, mostly feasible), GA-like offspring of those fronts, and
// repaired random genomes (mostly infeasible).
func designPool(probs []benchProblem, shape poolShape, seed int64) ([]design, error) {
	var pool []design
	for bi, bp := range probs {
		rng := rand.New(rand.NewSource(mixSeed(seed, 100+bi)))
		seen := map[dse.Key128]bool{}
		add := func(g *dse.Genome, converged bool) error {
			k := g.Key128()
			if seen[k] {
				return nil
			}
			seen[k] = true
			ph, err := bp.p.Decode(g)
			if err != nil {
				return err
			}
			pool = append(pool, design{bench: bp.name, arch: bp.p.Arch, apps: ph.Manifest.Apps,
				mapping: ph.Mapping, dropped: ph.Dropped, converged: converged})
			return nil
		}
		var front []*dse.Genome
		for r := 0; r < shape.gaRuns; r++ {
			res, err := dse.Optimize(bp.p, dse.Options{PopSize: shape.gaPop, Generations: shape.gaGens,
				Seed: mixSeed(seed, 200+10*bi+r), Workers: runtime.NumCPU()})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", bp.name, err)
			}
			for _, ind := range res.Front {
				front = append(front, ind.Genome)
				if err := add(ind.Genome, true); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < shape.offspring && len(front) > 0; i++ {
			child := bp.p.Crossover(front[rng.Intn(len(front))], front[rng.Intn(len(front))], rng)
			bp.p.Mutate(child, 0.08, rng)
			bp.p.Repair(child, rng)
			if err := add(child, false); err != nil {
				return nil, err
			}
		}
		for i := 0; i < shape.random; i++ {
			g := bp.p.RandomGenome(rng)
			bp.p.Repair(g, rng)
			if err := add(g, false); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(mixSeed(seed, 300)))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}
