package dse

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sort"
	"strconv"

	"mcmap/internal/hardening"
)

// This file implements the island-model layer of the GA and its one
// orchestrator. K SPEA-II populations evolve concurrently, with periodic
// Pareto-elite migration over a ring topology and a final cross-island
// non-dominated merge. runIslands drives every island through the same
// request sequence — init, advance legs, elites and migrants at each
// barrier, finish — over an islandEndpoint (transport.go), whatever
// venue serves it: an in-process island on the run's shared worker
// pool, a child process over pipes, or a fleet worker over TCP
// (distributed.go). A single-island run is the K=1 case minus migration
// and merge, performing exactly the operations of the pre-island engine
// in the same order — the islands=1 trajectory is byte-identical to the
// historical single-trajectory GA (pinned by TestIslandOneMatchesGolden).
//
// Determinism: each island owns an independent RNG stream derived from
// Options.Seed (see islandSeeds), islands synchronize only at migration
// barriers, and every run-level aggregate folds in island slot order.
// Candidate evaluation is pure per genome and islands share no mutable
// evaluation state, so the archives AND every counter are deterministic
// functions of the seed, in every venue.

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
	// and selection stack their phase labels on top.
	ctx context.Context

	archive []*Individual
	history []GenStat
	stats   Stats

	migrantsIn, migrantsOut int
}

// newIsland builds island idx with its derived seed. ev is the run's
// shared evaluator; the island gets a labeled pprof context, so the
// goroutines that evaluate and select for it are attributed to the
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
	if opts.Context != nil {
		// Thread cancellation into core.Analyze; left nil otherwise so
		// uncancellable runs skip the per-scenario Err checks.
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
	pop, err := isl.evaluateAll(genomes)
	if err != nil {
		return err
	}
	isl.archive = isl.selectArchive(pop)
	isl.record(isl.snapshot(0))
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
		evaluated, err := isl.evaluateAll(offspring)
		if err != nil {
			return err
		}
		union := append(append([]*Individual(nil), isl.archive...), evaluated...)
		isl.archive = isl.selectArchive(union)
		isl.record(isl.snapshot(gen))
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
func (isl *island) snapshot(gen int) GenStat {
	gs := snapshot(gen, isl.archive)
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

// receive merges a ring neighbour's migrants into the archive through
// the island's environmental selection and annotates the last recorded
// generation. outCount is the size of the elite set this island sent in
// the same round.
func (isl *island) receive(in []*Individual, outCount int) {
	isl.migrantsOut += outCount
	isl.migrantsIn += len(in)
	union := append(append([]*Individual(nil), isl.archive...), in...)
	isl.archive = isl.selectArchive(union)
	if len(isl.history) > 0 {
		isl.history[len(isl.history)-1].MigrantsIn += len(in)
	}
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

// runIslands is the island orchestrator. Each leg of MigrationInterval
// generations is one advance request to every endpoint; below the
// horizon a barrier follows: one ring-migration round when there is more
// than one island, then the checkpoint. The finish replies fold in slot
// order. A single island's archive is the result as is; K archives merge
// through one last environmental selection over their union. Resume and
// CheckpointSink reach into in-process islands, so Optimize refuses them
// for remote endpoints.
func runIslands(p *Problem, opts Options, eps []*islandEndpoint, res *Result) ([]*Individual, error) {
	k := len(eps)
	failed := true
	defer func() {
		if failed {
			for _, ep := range eps {
				ep.kill()
			}
		}
	}()

	// broadcast sends one request to every listed endpoint, then collects
	// the replies in slot order; the islands overlap their computation.
	broadcast := func(idx []int, req func(i int) *wireMsg, wantKind string) ([]*wireMsg, error) {
		for _, i := range idx {
			eps[i].send(req(i), wantKind)
		}
		replies := make([]*wireMsg, k)
		for _, i := range idx {
			msg, err := eps[i].collect()
			if err != nil {
				return nil, fmt.Errorf("dse: island %d: %w", i, err)
			}
			replies[i] = msg
		}
		return replies, nil
	}
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}

	start := 1
	if ck := opts.Resume; ck != nil {
		// Restore every island to the barrier state (archives, histories,
		// stats, fast-forwarded RNGs); the legs continue from the
		// generation after the checkpointed one.
		for i, ep := range eps {
			restoreIsland(ep.local.isl, &ck.Islands[i])
		}
		res.Stats.Migrations = ck.Migrations
		start = ck.Gen + 1
	} else if _, err := broadcast(all, func(i int) *wireMsg {
		return &wireMsg{Kind: kindInit, Init: eps[i].init}
	}, kindAck); err != nil {
		return nil, err
	}

	// The coordinator checks cancellation at leg boundaries; in-process
	// islands also check it between generations and candidate claims.
	for from := start; from <= opts.Generations; from += opts.MigrationInterval {
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				return nil, err
			}
		}
		to := from + opts.MigrationInterval - 1
		if to > opts.Generations {
			to = opts.Generations
		}
		if _, err := broadcast(all, func(int) *wireMsg {
			return &wireMsg{Kind: kindAdvance, From: from, To: to}
		}, kindAck); err != nil {
			return nil, err
		}
		if to == opts.Generations {
			break
		}
		if k > 1 {
			// One ring-migration round: island i receives the elites of
			// island i-1. Every elite set is captured from the pre-merge
			// archives before any island merges; islands receiving an
			// empty set are skipped entirely, including their MigrantsOut
			// tally.
			n := migrationElites(opts.ArchiveSize)
			elites, err := broadcast(all, func(int) *wireMsg {
				return &wireMsg{Kind: kindElites, N: n}
			}, kindElites)
			if err != nil {
				return nil, err
			}
			var receivers []int
			for i := 0; i < k; i++ {
				if in := elites[(i-1+k)%k].Elites; len(in) > 0 {
					receivers = append(receivers, i)
					res.Stats.Migrations += len(in)
				}
			}
			if _, err := broadcast(receivers, func(i int) *wireMsg {
				return &wireMsg{
					Kind:     kindMigrants,
					In:       elites[(i-1+k)%k].Elites,
					OutCount: len(elites[i].Elites),
				}
			}, kindAck); err != nil {
				return nil, err
			}
		}
		if opts.CheckpointSink != nil {
			// The barrier is complete (migration applied): everything the
			// remaining run depends on is in the islands' serialized state.
			islands := make([]*island, k)
			for i, ep := range eps {
				islands[i] = ep.local.isl
			}
			if err := opts.CheckpointSink(captureCheckpoint(p, opts, islands, to, res.Stats.Migrations)); err != nil {
				return nil, fmt.Errorf("dse: checkpoint sink: %w", err)
			}
		}
	}

	dones, err := broadcast(all, func(int) *wireMsg { return &wireMsg{Kind: kindFinish} }, kindDone)
	if err != nil {
		return nil, err
	}
	failed = false
	for i, ep := range eps {
		if err := ep.close(); err != nil {
			return nil, fmt.Errorf("dse: island worker %d exited: %w", i, err)
		}
		if ep.takenOver {
			res.Stats.IslandTakeovers++
		}
	}

	union := make([]*Individual, 0, k*opts.ArchiveSize)
	for _, msg := range dones {
		d := msg.Done
		if d == nil {
			return nil, errors.New("dse: island worker sent an empty done frame")
		}
		res.Stats.merge(&d.Stats)
		res.History = append(res.History, d.History...)
		union = append(union, d.Archive...)
		if k > 1 {
			res.Stats.IslandStats = append(res.Stats.IslandStats, d.Island)
		}
	}
	if k == 1 {
		return union, nil
	}
	// The history is ordered by (generation, island) so convergence plots
	// interleave naturally.
	sort.SliceStable(res.History, func(i, j int) bool {
		if res.History[i].Gen != res.History[j].Gen {
			return res.History[i].Gen < res.History[j].Gen
		}
		return res.History[i].Island < res.History[j].Island
	})
	var merged []*Individual
	pprof.Do(context.Background(), pprof.Labels("phase", "migrate"), func(context.Context) {
		merged = opts.Selector.Select(union, opts.ArchiveSize)
	})
	return merged, nil
}
