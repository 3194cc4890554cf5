package dse

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"

	"mcmap/internal/hardening"
)

// This file implements the island-model layer of the GA: K SPEA-II
// populations evolve concurrently on the run's shared worker budget, with
// periodic Pareto-elite migration over a ring topology and a final
// cross-island non-dominated merge. A single-island run takes the same
// code path minus migration and merge, performing exactly the operations
// of the pre-island engine in the same order — the islands=1 trajectory
// is byte-identical to the historical single-trajectory GA (pinned by
// TestIslandOneMatchesGolden).
//
// Determinism: each island owns an independent RNG stream derived from
// Options.Seed (see islandSeeds), islands synchronize only at migration
// barriers, and migration itself runs sequentially in island order on the
// coordinator. Candidate evaluation is pure per genome and islands share
// no mutable evaluation state, so the archives AND every counter are
// deterministic functions of the seed.

// IslandStat summarizes one island's trajectory in a multi-island run.
type IslandStat struct {
	Island    int
	Evaluated int
	Feasible  int
	// MigrantsIn and MigrantsOut count elite individuals received from and
	// sent to ring neighbours over every migration round.
	MigrantsIn  int
	MigrantsOut int
	// BestPower is the minimum feasible power in the island's final
	// archive (-1 when the island found no feasible design).
	BestPower float64
}

// islandSeeds derives one RNG seed per island from the run seed. Island 0
// keeps the run seed verbatim — that identity is what makes a single-
// island run reproduce the historical engine byte-for-byte — and islands
// i >= 1 draw from a SplitMix64 stream over the run seed, so any
// multi-island run is reproducible from the one -seed integer.
func islandSeeds(seed int64, k int) []int64 {
	out := make([]int64, k)
	out[0] = seed
	x := uint64(seed)
	for i := 1; i < k; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		out[i] = int64(z)
	}
	return out
}

// IslandSeeds exposes the per-island seed derivation: IslandSeeds(s, k)[i]
// is the RNG seed island i of a k-island run with Options.Seed = s
// evolves from. Benchmarks and analysis tooling use it to reproduce one
// island's trajectory in isolation (Optimize with Islands=1 and the
// derived seed runs the identical trajectory, absent migration).
func IslandSeeds(seed int64, k int) []int64 { return islandSeeds(seed, k) }

// island is one GA trajectory: its own RNG, archive and statistics, plus
// the run's shared evaluation machinery (analysis config, worker pool).
type island struct {
	idx  int
	p    *Problem
	opts Options // Seed already replaced by the island's derived seed
	// src is the island RNG's counted source: rng draws through it, and
	// the running draw count is what checkpoints serialize in place of
	// the (unserializable) generator state.
	src *countingSource
	rng *rand.Rand
	ev  evaluator
	// ctx carries the island's pprof label ("island": idx); evaluateAll
	// and the nested scenario fan-out stack their phase labels on top.
	ctx context.Context

	archive []*Individual
	history []GenStat
	stats   Stats
	err     error

	migrantsIn, migrantsOut int
}

// newIsland builds island idx with its derived seed. ev is the run's
// shared evaluator; the island gets a labeled pprof context threaded
// into the analysis config so scenario workers are attributed to the
// island.
func newIsland(idx int, p *Problem, opts Options, seed int64, ev evaluator) *island {
	opts.Seed = seed
	base := opts.Context
	if base == nil {
		base = context.Background()
	}
	src := newCountingSource(seed)
	isl := &island{
		idx:  idx,
		p:    p,
		opts: opts,
		src:  src,
		rng:  rand.New(src),
		ev:   ev,
		ctx:  pprof.WithLabels(base, pprof.Labels("island", strconv.Itoa(idx))),
	}
	isl.ev.cfg.ProfCtx = isl.ctx
	if opts.Context != nil {
		// Thread cancellation into the scenario fan-out; left nil
		// otherwise so uncancellable runs skip the per-chunk Err checks.
		isl.ev.cfg.Ctx = isl.ctx
	}
	isl.stats.TechniqueCounts = map[hardening.Technique]int{}
	return isl
}

// record appends one generation to the island's history and forwards it
// to the run's progress callback (already serialized by Optimize).
func (isl *island) record(gs GenStat) {
	isl.history = append(isl.history, gs)
	if isl.opts.Progress != nil {
		isl.opts.Progress(gs)
	}
}

// prepare finalizes a genome before evaluation: forced keep bits when
// dropping is disabled, then the randomized repair (both exactly as the
// pre-island engine did, drawing from the island's RNG).
func (isl *island) prepare(g *Genome) *Genome {
	if isl.opts.DisableDropping {
		for i := range g.Keep {
			g.Keep[i] = true
		}
	}
	if !isl.opts.DisableRepair {
		isl.p.Repair(g, isl.rng)
	}
	return g
}

// init builds and evaluates the initial population (heuristic seeds plus
// random genomes) and selects the first archive — generation 0.
func (isl *island) init() error {
	if err := isl.ctx.Err(); err != nil {
		return err
	}
	genomes := make([]*Genome, 0, isl.opts.PopSize)
	if !isl.opts.NoSeeds {
		for _, g := range isl.p.SeedGenomes() {
			if len(genomes) < isl.opts.PopSize {
				genomes = append(genomes, isl.prepare(g))
			}
		}
	}
	for len(genomes) < isl.opts.PopSize {
		genomes = append(genomes, isl.prepare(isl.p.RandomGenome(isl.rng)))
	}
	pop, bc, err := isl.evaluateAll(genomes)
	if err != nil {
		return err
	}
	isl.archive = isl.selectArchive(pop)
	isl.record(isl.snapshot(0, bc))
	return nil
}

// advance evolves generations from..to inclusive: parent selection,
// crossover/mutation/repair, evaluation, environmental selection — the
// body of the pre-island generation loop, verbatim.
func (isl *island) advance(from, to int) error {
	for gen := from; gen <= to; gen++ {
		if err := isl.ctx.Err(); err != nil {
			return err
		}
		parents := isl.opts.Selector.Parents(isl.archive, isl.opts.PopSize, isl.rng)
		offspring := make([]*Genome, 0, isl.opts.PopSize)
		for i := 0; i < isl.opts.PopSize; i++ {
			a := parents[isl.rng.Intn(len(parents))]
			b := parents[isl.rng.Intn(len(parents))]
			child := isl.p.Crossover(a.Genome, b.Genome, isl.rng)
			isl.p.Mutate(child, isl.opts.MutationRate, isl.rng)
			offspring = append(offspring, isl.prepare(child))
		}
		evaluated, bc, err := isl.evaluateAll(offspring)
		if err != nil {
			return err
		}
		union := append(append([]*Individual(nil), isl.archive...), evaluated...)
		isl.archive = isl.selectArchive(union)
		isl.record(isl.snapshot(gen, bc))
	}
	return nil
}

// selectArchive runs environmental selection under the island's "select"
// pprof phase.
func (isl *island) selectArchive(union []*Individual) []*Individual {
	var next []*Individual
	pprof.Do(isl.ctx, pprof.Labels("phase", "select"), func(context.Context) {
		next = isl.opts.Selector.Select(union, isl.opts.ArchiveSize)
	})
	return next
}

// snapshot records one generation, stamped with the island index.
func (isl *island) snapshot(gen int, bc batchCounters) GenStat {
	gs := snapshot(gen, isl.archive, bc)
	gs.Island = isl.idx
	return gs
}

// elites returns clones of the island's n best archive members by SPEA2
// fitness (stable over archive order, so ties resolve deterministically).
// Clones keep the receiving island's environmental selection from
// mutating the sender's Fitness values.
func (isl *island) elites(n int) []*Individual {
	if n > len(isl.archive) {
		n = len(isl.archive)
	}
	if n <= 0 {
		return nil
	}
	ranked := append([]*Individual(nil), isl.archive...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Fitness < ranked[j].Fitness })
	out := make([]*Individual, n)
	for i := 0; i < n; i++ {
		out[i] = ranked[i].cloneFor(ranked[i].Genome)
	}
	return out
}

// islandStat summarizes the island after its last generation.
func (isl *island) islandStat() IslandStat {
	st := IslandStat{
		Island:      isl.idx,
		Evaluated:   isl.stats.Evaluated,
		Feasible:    isl.stats.Feasible,
		MigrantsIn:  isl.migrantsIn,
		MigrantsOut: isl.migrantsOut,
		BestPower:   -1,
	}
	for _, ind := range isl.archive {
		if ind.Feasible && (st.BestPower < 0 || ind.Power < st.BestPower) {
			st.BestPower = ind.Power
		}
	}
	return st
}

// forEachIsland runs fn on every island, concurrently when there is more
// than one. Island goroutines carry the island's pprof labels, which
// every goroutine they spawn (evaluation workers, selection helpers,
// scenario helpers) inherits.
func forEachIsland(islands []*island, fn func(*island) error) error {
	if len(islands) == 1 {
		islands[0].err = fn(islands[0])
	} else {
		var wg sync.WaitGroup
		for _, isl := range islands {
			wg.Add(1)
			//lint:allow gospawn one coordinator per island; all work inside acquires from the shared pool
			go func(isl *island) {
				defer wg.Done()
				pprof.Do(isl.ctx, pprof.Labels(), func(context.Context) {
					isl.err = fn(isl)
				})
			}(isl)
		}
		wg.Wait()
	}
	for _, isl := range islands {
		if isl.err != nil {
			return fmt.Errorf("dse: island %d: %w", isl.idx, isl.err)
		}
	}
	return nil
}

// migrationElites is how many archive members each island sends per
// migration round: a tenth of the archive, at least one.
func migrationElites(archiveSize int) int {
	n := archiveSize / 10
	if n < 1 {
		n = 1
	}
	return n
}

// migrateRing performs one migration round over the ring topology:
// island i receives the elites of island i-1 (mod K). All outgoing elite
// sets are captured from the pre-migration archives first, then merged
// sequentially in island order through each receiver's environmental
// selection, so the round is a deterministic function of the archives.
// The merge is annotated on the last recorded generation's MigrantsIn.
// Returns the total number of migrants exchanged.
func migrateRing(islands []*island) int {
	k := len(islands)
	n := migrationElites(islands[0].opts.ArchiveSize)
	outs := make([][]*Individual, k)
	for i, isl := range islands {
		outs[i] = isl.elites(n)
	}
	total := 0
	for i, isl := range islands {
		in := outs[(i-1+k)%k]
		if len(in) == 0 {
			continue
		}
		isl.migrantsOut += len(outs[i])
		isl.migrantsIn += len(in)
		union := append(append([]*Individual(nil), isl.archive...), in...)
		isl.archive = isl.selectArchive(union)
		if len(isl.history) > 0 {
			isl.history[len(isl.history)-1].MigrantsIn += len(in)
		}
		total += len(in)
	}
	return total
}

// runIslands is the multi-island orchestrator: parallel legs of
// MigrationInterval generations separated by sequential ring-migration
// barriers, then a final cross-island merge through one last
// environmental selection over the union of all archives.
func runIslands(p *Problem, opts Options, ev evaluator, res *Result) ([]*Individual, error) {
	seeds := islandSeeds(opts.Seed, opts.Islands)
	islands := make([]*island, opts.Islands)
	for i := range islands {
		islands[i] = newIsland(i, p, opts, seeds[i], ev)
	}

	startGen := 1
	if ck := opts.Resume; ck != nil {
		// Restore every island to the barrier state (archives, histories,
		// stats, fast-forwarded RNGs); the leg loop then continues from
		// the generation after the checkpointed one.
		for i := range islands {
			restoreIsland(islands[i], &ck.Islands[i])
		}
		res.Stats.Migrations = ck.Migrations
		startGen = ck.Gen + 1
	} else if err := forEachIsland(islands, func(isl *island) error { return isl.init() }); err != nil {
		return nil, err
	}
	for start := startGen; start <= opts.Generations; start += opts.MigrationInterval {
		end := start + opts.MigrationInterval - 1
		if end > opts.Generations {
			end = opts.Generations
		}
		if err := forEachIsland(islands, func(isl *island) error { return isl.advance(start, end) }); err != nil {
			return nil, err
		}
		if end < opts.Generations {
			pprof.Do(context.Background(), pprof.Labels("phase", "migrate"), func(context.Context) {
				res.Stats.Migrations += migrateRing(islands)
			})
			if opts.CheckpointSink != nil {
				// The barrier is complete (migration applied): everything
				// the remaining run depends on is in the islands'
				// serialized state.
				if err := opts.CheckpointSink(captureCheckpoint(p, opts, islands, end, res.Stats.Migrations)); err != nil {
					return nil, fmt.Errorf("dse: checkpoint sink: %w", err)
				}
			}
		}
	}

	// Fold per-island statistics and histories; the history is ordered by
	// (generation, island) so convergence plots interleave naturally.
	for _, isl := range islands {
		res.Stats.merge(&isl.stats)
		res.Stats.IslandStats = append(res.Stats.IslandStats, isl.islandStat())
		res.History = append(res.History, isl.history...)
	}
	sort.SliceStable(res.History, func(i, j int) bool {
		if res.History[i].Gen != res.History[j].Gen {
			return res.History[i].Gen < res.History[j].Gen
		}
		return res.History[i].Island < res.History[j].Island
	})

	union := make([]*Individual, 0, opts.Islands*opts.ArchiveSize)
	for _, isl := range islands {
		union = append(union, isl.archive...)
	}
	var merged []*Individual
	pprof.Do(context.Background(), pprof.Labels("phase", "migrate"), func(context.Context) {
		merged = opts.Selector.Select(union, opts.ArchiveSize)
	})
	return merged, nil
}
