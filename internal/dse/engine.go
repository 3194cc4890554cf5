package dse

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"

	"mcmap/internal/core"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/validate"
	"mcmap/internal/workpool"
)

// infeasiblePenalty is the base objective value of infeasible candidates;
// it dominates every physical power figure, so feasible designs always
// Pareto-dominate infeasible ones, while the overrun term still provides
// a gradient towards feasibility (the paper's "exceedingly bad fitness").
const infeasiblePenalty = 1e6

// Individual is one evaluated candidate.
type Individual struct {
	Genome *Genome
	// Objectives is (expected power, -service); both minimized.
	Objectives Objectives
	// Fitness is selector-internal (SPEA2: R + D).
	Fitness float64
	// Power is the expected power in watts (only meaningful when
	// Feasible).
	Power float64
	// Service is the retained QoS sum.
	Service float64
	// Feasible: deadlines hold (normal + critical scenarios per the
	// paper's semantics) and reliability constraints are met.
	Feasible bool
	// FeasibleNoDrop: same design remains feasible when task dropping is
	// disabled (evaluated only when Options.TrackDroppingGain).
	FeasibleNoDrop bool
	// GraphWCRT is the per-graph analyzed WCRT.
	GraphWCRT []model.Time
	// Dropped is the decoded drop set (names).
	Dropped []string
	// scen tallies this candidate's scenario-analysis counters, which
	// evaluateAll folds into Stats.
	scen scenarioTally
}

// scenarioTally aggregates the Report scenario counters of one
// evaluation (both the dropping and the no-dropping analysis when
// TrackDroppingGain doubles them up).
type scenarioTally struct {
	analyzed, deduped int
}

func (t *scenarioTally) add(rep *core.Report) {
	t.analyzed += rep.ScenariosAnalyzed
	t.deduped += rep.ScenariosDeduped
}

// cloneFor copies an evaluation and re-attributes it to genome g.
// Individuals are never shared between archive slots: selectors mutate
// the Fitness field in place, so a migrant needs a fresh object (a
// migrant is a clone, so the sending island's archive keeps its own
// Fitness values).
//
// The GraphWCRT and Dropped slices are shared between the clone and the
// original as immutable report views: evaluation is their only writer
// (evaluate builds them before the Individual escapes), so every
// later consumer — selectors, exports, migration — reads them only.
// Only the selector-mutated scalar fields are per-clone.
func (ind *Individual) cloneFor(g *Genome) *Individual {
	c := *ind
	c.Genome = g
	return &c
}

// Options tunes the GA run. The paper uses population = parents =
// offspring = 100 and 5000 generations; tests and benches use far
// smaller values.
type Options struct {
	PopSize     int
	ArchiveSize int
	Generations int
	Seed        int64
	// MutationRate is the per-locus mutation probability (default 0.08).
	MutationRate float64
	// Workers is the total worker budget of the run (default GOMAXPROCS).
	// It bounds parallel fitness evaluations, the islands running them
	// and the SPEA-II row fan-out: all layers draw from one shared
	// workpool, so nesting never oversubscribes to Workers² goroutines.
	// Each evaluation's Algorithm 1 runs sequentially on its worker.
	Workers int
	// Islands runs that many SPEA-II populations concurrently on the
	// shared worker budget (default 1). Each island evolves its own
	// trajectory from an independent RNG stream derived from Seed (see
	// islandSeeds: island 0 keeps Seed verbatim, so Islands=1 reproduces
	// the single-trajectory engine byte-for-byte), and every
	// MigrationInterval generations each island's Pareto elites migrate
	// to its ring neighbour. The final Result merges all islands through one last
	// environmental selection; History carries every island's GenStats
	// (tagged with GenStat.Island) and Stats.IslandStats the per-island
	// summaries.
	Islands int
	// MigrationInterval is the number of generations each island evolves
	// between migration barriers (default 10). Irrelevant at Islands=1.
	MigrationInterval int
	// Distributed runs each island of a multi-island run in its own
	// child process (a re-exec of the current binary), for multicore
	// scaling past the Go runtime's shared-heap contention. One
	// orchestrator drives in-process and out-of-process islands alike —
	// same seeds, legs and migration order — so the resulting Result is
	// byte-identical, counters included. Requires a built-in Selector
	// and a host binary that routes to RunIslandWorker when
	// IslandWorkerEnv is set (see cmd/ftmap); ignored at Islands=1.
	Distributed bool
	// IslandHosts fans a multi-island run out over a fleet of TCP
	// workers instead of child processes: island i connects to
	// IslandHosts[i mod len(IslandHosts)], each address serving island
	// legs via ServeIslands (mcmapd -worker). Orchestration, seeds and
	// merge order are those of every other venue, so the final archive
	// stays byte-identical to the in-process islands=K run. Connections
	// are persistent with deadline-based heartbeats; a lost worker is
	// re-dialed with exponential backoff and replayed, and on
	// unrecoverable loss the coordinator deterministically re-runs that
	// island locally (counted in Stats.IslandTakeovers), so results never
	// depend on which worker died. Implies Distributed; ignored at
	// Islands=1; not supported with checkpoint/resume (like Distributed).
	IslandHosts []string
	// Pool optionally shares a caller-owned worker budget across several
	// Optimize runs — the experiments grid runs its seed × strategy ×
	// benchmark cells concurrently against one pool so the whole grid
	// saturates the machine without oversubscribing it. When nil (the
	// default), Optimize creates a private pool of Workers slots and
	// closes it before returning; a caller's pool is never closed.
	// Sharing a pool never changes any run's trajectory, only its
	// scheduling.
	Pool *workpool.Pool
	// Selector is the environmental selection strategy (default SPEA2,
	// as in the paper).
	Selector Selector
	// TrackDroppingGain additionally evaluates every candidate with
	// dropping disabled, to measure the Section 5.2 rescue ratio. It
	// doubles the analysis cost.
	TrackDroppingGain bool
	// DisableDropping forces every droppable application to be kept
	// (T_d is always empty) — the "without task dropping" baseline.
	DisableDropping bool
	// DisableRepair skips the randomized repair (ablation); infeasible
	// candidates are only penalized.
	DisableRepair bool
	// NoSeeds disables the heuristic seed genomes in the initial
	// population (ablation).
	NoSeeds bool
	// Context, when non-nil, cancels the run: islands check it between
	// generations and between candidate claims, and it flows into
	// core.Config.Ctx so an in-flight analysis stops before its next
	// scenario. Optimize then returns an error wrapping ctx.Err(), with
	// every shared-pool slot released by the time it returns. A run that
	// completes before cancellation is byte-identical to an uncancelled
	// one. Distributed runs check the context only at leg barriers.
	Context context.Context
	// Progress, when non-nil, receives every generation's GenStat right
	// after it is recorded, before the next generation starts — the
	// streaming-progress hook of the analysis service. The engine
	// serializes calls (multi-island runs record concurrently, but
	// Progress never runs reentrantly); the callback must not block for
	// long, since it runs on the goroutine evolving the island.
	// Ring-migration annotations (GenStat.MigrantsIn) land in
	// Result.History after the callback has fired for the barrier
	// generation. Not invoked by Distributed runs, whose children own
	// their histories until the finish.
	Progress func(GenStat)
	// CheckpointSink, when non-nil, receives the full run state at every
	// migration barrier (for single-island runs: every
	// MigrationInterval generations), after migration. The sink runs
	// synchronously on the coordinator and must Encode (or otherwise
	// deep-copy) the checkpoint before returning; a non-nil error aborts
	// the run. Not supported with Distributed.
	CheckpointSink func(*Checkpoint) error
	// Resume restores a run from a checkpoint instead of initializing
	// generation 0. The problem fingerprint, island count and every
	// trajectory-relevant option must match the checkpointed run (see
	// checkResume); the resumed run's final archive is then
	// byte-identical to the uninterrupted run's. Not supported with
	// Distributed.
	Resume *Checkpoint
}

func (o Options) withDefaults() Options {
	if o.PopSize <= 0 {
		o.PopSize = 100
	}
	if o.ArchiveSize <= 0 {
		o.ArchiveSize = o.PopSize
	}
	if o.Generations <= 0 {
		o.Generations = 100
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.08
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Islands <= 0 {
		o.Islands = 1
	}
	if o.MigrationInterval <= 0 {
		o.MigrationInterval = 10
	}
	if o.Selector == nil {
		o.Selector = SPEA2{}
	}
	return o
}

// GenStat is one generation's progress record.
type GenStat struct {
	Gen int
	// Island is the index of the island that produced this generation
	// (always 0 in single-island runs).
	Island      int
	BestPower   float64
	Feasible    int
	ArchiveSize int
	// MigrantsIn counts elite individuals merged into the island's archive
	// by the ring migration that ran right after this generation (zero in
	// single-island runs and between migration barriers).
	MigrantsIn int
}

// Stats aggregates exploration statistics over every evaluated candidate
// (the raw material of Section 5.2).
type Stats struct {
	Evaluated int
	Feasible  int
	// RescuedByDropping counts candidates feasible with their drop set
	// but infeasible with dropping disabled (needs TrackDroppingGain).
	RescuedByDropping int
	// InfeasibleNoDrop counts candidates infeasible with dropping
	// disabled (needs TrackDroppingGain).
	InfeasibleNoDrop int
	// TechniqueCounts tallies hardening techniques over feasible
	// candidates' applied (non-None) decisions.
	TechniqueCounts map[hardening.Technique]int
	// CacheHits, CacheMisses, CacheBypassed, StructHits and StructMisses
	// are always 0: the engine no longer memoizes fitness evaluations or
	// analysis structures. The fields stay for callers that still read
	// them.
	CacheHits     int
	CacheMisses   int
	CacheBypassed int
	StructHits    int
	StructMisses  int
	// ScenariosAnalyzed and ScenariosDeduped aggregate the core.Report
	// scenario counters over every analysis the run performed: backend
	// invocations performed, plus invocations saved by deduplication.
	ScenariosAnalyzed int
	ScenariosDeduped  int
	// ScenariosIncremental is always 0, like core.Report's field of the
	// same name.
	ScenariosIncremental int
	// BatchHits is always 0: every candidate runs its own evaluation,
	// with no sharing between the members of a generation. The field
	// stays for callers that still read it.
	BatchHits int
	// Migrations counts the elite individuals exchanged over all ring-
	// migration rounds of a multi-island run (zero at Islands=1).
	Migrations int
	// IslandTakeovers counts islands a distributed coordinator re-ran
	// locally after unrecoverable worker loss (zero in healthy runs and
	// in non-distributed modes). Takeovers never change the archive —
	// the replaced islands replay the identical request sequence.
	IslandTakeovers int
	// IslandStats holds one per-island summary for multi-island runs, in
	// island order; nil at Islands=1.
	IslandStats []IslandStat
}

// merge folds another Stats (one island's tallies) into s. Migrations
// and IslandStats are run-level aggregates maintained by the coordinator
// and are not merged.
func (s *Stats) merge(o *Stats) {
	s.Evaluated += o.Evaluated
	s.Feasible += o.Feasible
	s.RescuedByDropping += o.RescuedByDropping
	s.InfeasibleNoDrop += o.InfeasibleNoDrop
	for t, c := range o.TechniqueCounts {
		s.TechniqueCounts[t] += c
	}
	s.ScenariosAnalyzed += o.ScenariosAnalyzed
	s.ScenariosDeduped += o.ScenariosDeduped
}

// RescueRatio is the Section 5.2 headline number: the fraction of
// explored solutions that are infeasible without task dropping but
// feasible with it.
func (s Stats) RescueRatio() float64 {
	if s.Evaluated == 0 {
		return 0
	}
	return float64(s.RescuedByDropping) / float64(s.Evaluated)
}

// ReExecutionShare is the fraction of applied hardening decisions that
// are re-executions, over feasible candidates.
func (s Stats) ReExecutionShare() float64 {
	total := 0
	for _, c := range s.TechniqueCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(s.TechniqueCounts[hardening.ReExecution]) / float64(total)
}

// Result is the GA outcome.
type Result struct {
	// Best is the feasible individual with minimum power (nil when none
	// found).
	Best *Individual
	// Front is the feasible non-dominated set, sorted by power.
	Front []*Individual
	// Stats aggregates all evaluations; History records per-generation
	// progress.
	Stats   Stats
	History []GenStat
}

// Optimize runs the GA: Options.Islands concurrent SPEA-II trajectories
// over one shared worker budget, with ring migration every
// MigrationInterval generations and a final cross-island merge. At
// Islands=1 (the default) the run is byte-identical to the historical
// single-trajectory engine for any given seed.
func Optimize(p *Problem, opts Options) (*Result, error) {
	// Static pre-flight over the DSE parameters: reject chromosome caps
	// the encoding cannot express before evolving anything. Warnings
	// (defaulted fields, contradictory measurement flags) are left to
	// the caller's validation tooling — the engine only refuses what it
	// cannot run.
	if r := validate.CheckDSEParams(p.Arch, validate.DSEParams{
		MaxK: p.MaxK, MaxReplicas: p.MaxReplicas,
		PopSize: opts.PopSize, ArchiveSize: opts.ArchiveSize, Generations: opts.Generations,
		MutationRate: opts.MutationRate, Workers: opts.Workers,
		Islands: opts.Islands, MigrationInterval: opts.MigrationInterval,
		TrackDroppingGain: opts.TrackDroppingGain, DisableDropping: opts.DisableDropping,
	}); r.HasErrors() {
		return nil, r.Err()
	}
	opts = opts.withDefaults()
	if opts.Context != nil {
		if err := opts.Context.Err(); err != nil {
			return nil, err
		}
	}
	distributed := (opts.Distributed || len(opts.IslandHosts) > 0) && opts.Islands > 1
	if distributed && (opts.CheckpointSink != nil || opts.Resume != nil) {
		return nil, fmt.Errorf("dse: checkpoint/resume is not supported with distributed islands")
	}
	if opts.Resume != nil {
		if err := checkResume(p, opts, opts.Resume); err != nil {
			return nil, err
		}
	}
	if opts.Progress != nil {
		// Serialize the callback: multi-island runs record generations
		// from concurrent island goroutines.
		var mu sync.Mutex
		fn := opts.Progress
		opts.Progress = func(gs GenStat) {
			mu.Lock()
			defer mu.Unlock()
			fn(gs)
		}
	}
	if opts.Pool == nil {
		opts.Pool = workpool.New(opts.Workers)
		// Deferred before the islands run, so it fires after every
		// endpoint has been closed or killed and no island still draws
		// from the pool.
		defer opts.Pool.Close()
	}
	ev, opts := newRunEvaluator(p, opts)

	var eps []*islandEndpoint
	if distributed {
		var err error
		if eps, err = remoteEndpoints(p, opts); err != nil {
			return nil, err
		}
	} else {
		for i, seed := range islandSeeds(opts.Seed, opts.Islands) {
			eps = append(eps, &islandEndpoint{slot: i,
				local: &islandWorker{isl: newIsland(i, p, opts, seed, ev)}})
		}
	}
	res := &Result{Stats: Stats{TechniqueCounts: map[hardening.Technique]int{}}}
	archive, err := runIslands(p, opts, eps, res)
	if err != nil {
		return nil, err
	}

	// Harvest.
	for _, ind := range archive {
		if !ind.Feasible {
			continue
		}
		if res.Best == nil || ind.Power < res.Best.Power {
			res.Best = ind
		}
	}
	res.Front = paretoFront(archive)
	return res, nil
}

// newRunEvaluator builds a run's evaluation machinery from its options:
// one worker budget for the whole run (opts.Pool, which must be set) —
// candidate evaluations acquire from the pool, the SPEA-II selection
// kernels borrow spare tokens from the same pool (see workpool), and
// every island draws from it too — plus the pool-wired selector. Shared
// by Optimize and the island worker (buildWorkerIsland), which performs
// exactly this wiring against its own worker budget.
func newRunEvaluator(p *Problem, opts Options) (evaluator, Options) {
	ev := evaluator{
		cfg:  p.Analysis,
		pool: opts.Pool,
	}
	if pw, ok := opts.Selector.(poolWirer); ok {
		opts.Selector = pw.withPool(ev.pool)
	}
	return ev, opts
}

// snapshot records one generation.
func snapshot(gen int, archive []*Individual) GenStat {
	gs := GenStat{Gen: gen, BestPower: -1, ArchiveSize: len(archive)}
	for _, ind := range archive {
		if !ind.Feasible {
			continue
		}
		gs.Feasible++
		if gs.BestPower < 0 || ind.Power < gs.BestPower {
			gs.BestPower = ind.Power
		}
	}
	return gs
}

// paretoFront extracts the feasible non-dominated individuals, deduped by
// objectives and sorted by power.
func paretoFront(archive []*Individual) []*Individual {
	var feas []*Individual
	for _, ind := range archive {
		if ind.Feasible {
			feas = append(feas, ind)
		}
	}
	var front []*Individual
	for _, a := range feas {
		dominated := false
		for _, b := range feas {
			if b != a && b.Objectives.Dominates(a.Objectives) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	sort.SliceStable(front, func(i, j int) bool {
		if front[i].Power != front[j].Power {
			return front[i].Power < front[j].Power
		}
		return front[i].Service < front[j].Service
	})
	// Dedup identical objective points.
	out := front[:0]
	for i, ind := range front {
		if i > 0 && ind.Objectives == front[i-1].Objectives {
			continue
		}
		out = append(out, ind)
	}
	return out
}

// evaluator bundles the per-run evaluation machinery: the analysis
// config and the run's shared worker pool.
type evaluator struct {
	cfg  core.Config
	pool *workpool.Pool
}

// evaluateAll scores a batch of genomes and folds statistics into the
// island's tally. The candidates fan out over the shared worker pool;
// results land by batch index and statistics fold sequentially in batch
// order, so the outcome is deterministic for a given seed at every
// worker budget.
func (isl *island) evaluateAll(genomes []*Genome) ([]*Individual, error) {
	p, opts, ev, stats := isl.p, isl.opts, isl.ev, &isl.stats
	out := make([]*Individual, len(genomes))
	errs := make([]error, len(genomes))
	// The island goroutine coordinates the batch: it blocks for ONE
	// pool slot (keeping sibling islands budget-bounded), then drains the
	// candidates inline, with up to width-1 helpers submitted to the
	// persistent pool draining the same shared cursor. Helpers hold their
	// own slots and never block-acquire, so the nesting protocol stays
	// deadlock-free, and the common Workers=1 case runs the batch as a
	// plain sequential loop in batch order.
	pprof.Do(isl.ctx, pprof.Labels("phase", "evaluate"), func(context.Context) {
		ev.pool.Acquire()
		defer ev.pool.Release()
		var cursor atomic.Int64
		// Cancellation: workers re-check the island context per claim,
		// so a cancelled run stops fanning out within one candidate's
		// worth of work and releases its pool slots.
		claim := func() (int, bool) {
			if isl.ctx.Err() != nil {
				return 0, false
			}
			i := int(cursor.Add(1)) - 1
			return i, i < len(genomes)
		}
		drain := func() {
			i, ok := claim()
			if !ok {
				return
			}
			pprof.Do(isl.ctx, pprof.Labels("phase", "evaluate"), func(context.Context) {
				for ok {
					out[i], errs[i] = p.evaluate(genomes[i], opts.TrackDroppingGain, ev.cfg)
					i, ok = claim()
				}
			})
		}
		width := ev.pool.Cap()
		if width > len(genomes) {
			width = len(genomes)
		}
		ev.pool.FanOut(width, drain)
	})
	// After a cancelled fan-out some out[i] slots are nil (never claimed);
	// surface ctx.Err() before the merge walks them.
	if err := isl.ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("dse: evaluating candidate %d: %w", i, err)
		}
	}

	for _, ind := range out {
		stats.ScenariosAnalyzed += ind.scen.analyzed
		stats.ScenariosDeduped += ind.scen.deduped
		stats.Evaluated++
		if ind.Feasible {
			stats.Feasible++
			for i := range ind.Genome.Genes {
				t := ind.Genome.Genes[i].Technique
				if t != hardening.None {
					stats.TechniqueCounts[t]++
				}
			}
		}
		if opts.TrackDroppingGain {
			if !ind.FeasibleNoDrop {
				stats.InfeasibleNoDrop++
				if ind.Feasible {
					stats.RescuedByDropping++
				}
			}
		}
	}
	return out, nil
}
