package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/dse"
	"mcmap/internal/platform"
	"mcmap/internal/power"
	"mcmap/internal/reliability"
)

// referenceSeed is the GA seed whose final-archive digests are committed
// in reference.json.
const referenceSeed = 1

//go:embed reference.json
var referenceJSON []byte

// referenceDigest returns the committed digest for key.
func referenceDigest(key string) (string, error) {
	var refs map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return "", fmt.Errorf("reference.json: %w", err)
	}
	d, ok := refs[key]
	if !ok {
		return "", fmt.Errorf("reference.json has no digest for %s", key)
	}
	return d, nil
}

// archiveDigest hashes everything the determinism contract pins about a
// run: per-generation archive summaries, evaluation counts, migrations and
// the final front's objectives and genome identities (Genome.Key128).
// Cache counters are left out; they legitimately differ between in-process
// and child-process islands.
func archiveDigest(res *dse.Result) string {
	var b strings.Builder
	for _, h := range res.History {
		fmt.Fprintf(&b, "g%d.%d:%x:%d:%d:m%d;", h.Gen, h.Island, h.BestPower, h.Feasible, h.ArchiveSize, h.MigrantsIn)
	}
	fmt.Fprintf(&b, "|ev%d:fe%d:mig%d", res.Stats.Evaluated, res.Stats.Feasible, res.Stats.Migrations)
	if res.Best != nil {
		fmt.Fprintf(&b, "|best:%x", res.Best.Power)
	}
	for _, ind := range res.Front {
		fmt.Fprintf(&b, "|f:%x:%x:%x", ind.Objectives[0], ind.Objectives[1], ind.Genome.Key128())
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:12])
}

// checkReference runs the reference seed and compares its digest with
// the committed one.
func checkReference(p *dse.Problem, opts dse.Options, key string) error {
	opts.Seed = referenceSeed
	r, err := dse.Optimize(p, opts)
	if err != nil {
		return err
	}
	got := archiveDigest(r)
	want, err := referenceDigest(key)
	if err != nil {
		return fmt.Errorf("%w (this run's digest: %s)", err, got)
	}
	if got != want {
		return fmt.Errorf("%s: archive digest %s, reference %s", key, got, want)
	}
	return nil
}

// checkFront re-evaluates every front member on the plain per-candidate
// path (no fitness cache, batching or island machinery) and requires the
// objectives the run reported.
func checkFront(p *dse.Problem, r *dse.Result) error {
	if r.Best == nil {
		return fmt.Errorf("run found no feasible design")
	}
	for _, ind := range append([]*dse.Individual{r.Best}, r.Front...) {
		again, err := p.Evaluate(ind.Genome, false)
		if err != nil {
			return err
		}
		if again.Feasible != ind.Feasible || again.Objectives != ind.Objectives {
			return fmt.Errorf("front member re-evaluates to %v feasible=%v, run reported %v feasible=%v",
				again.Objectives, again.Feasible, ind.Objectives, ind.Feasible)
		}
	}
	return nil
}

// newProblem builds the workload's problem and, for an untraced run, the
// sampler that times dse.NewProblem (which includes the static pre-flight)
// as its set-up.
func newProblem(cfg runConfig, b *benchmarks.Benchmark) (*dse.Problem, *setupSampler, error) {
	p, err := dse.NewProblem(b.Arch, b.Apps)
	if err != nil || cfg.Trace {
		return p, nil, err
	}
	return p, newSetupSampler(cfg.Size.SetupBatches, cfg.Duration, func() (func(), error) {
		_, err := dse.NewProblem(b.Arch, b.Apps)
		return nil, err
	}), nil
}

// setDSEStats records the per-layer counters of the timed runs.
func setDSEStats(res *result, stats []dse.Stats, loop loopStats) {
	var s dse.Stats
	for _, st := range stats {
		s.Evaluated += st.Evaluated
		s.CacheHits += st.CacheHits
		s.CacheMisses += st.CacheMisses
		s.CacheBypassed += st.CacheBypassed
		s.BatchHits += st.BatchHits
		s.StructHits += st.StructHits
		s.StructMisses += st.StructMisses
		s.ScenariosAnalyzed += st.ScenariosAnalyzed
		s.ScenariosDeduped += st.ScenariosDeduped
		s.ScenariosIncremental += st.ScenariosIncremental
		s.Migrations += st.Migrations
		s.IslandTakeovers += st.IslandTakeovers
	}
	n := float64(len(stats))
	res.set("dse.evaluated", ratio(float64(s.Evaluated), n))
	res.set("dse.fitness_hit_ratio", ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses)))
	res.set("dse.bypassed_gens", ratio(float64(s.CacheBypassed), n))
	res.set("dse.batch_hit_ratio", ratio(float64(s.BatchHits), float64(s.CacheMisses)))
	res.set("dse.migrations", ratio(float64(s.Migrations), n))
	res.set("dse.takeovers", float64(s.IslandTakeovers))
	res.set("core.struct_hit_ratio", ratio(float64(s.StructHits), float64(s.StructHits+s.StructMisses)))
	res.set("core.dedup_ratio", ratio(float64(s.ScenariosDeduped), float64(s.ScenariosAnalyzed+s.ScenariosDeduped)))
	// Every Analyze call makes exactly one structural-cache lookup.
	res.set("core.backend_runs_per_analysis", ratio(float64(s.ScenariosAnalyzed), float64(s.StructHits+s.StructMisses)))
	res.set("core.incremental_share", ratio(float64(s.ScenariosIncremental), float64(s.ScenariosAnalyzed)))
	res.set("runtime.alloc_kb_per_eval", ratio(loop.alloc/1024, float64(s.Evaluated)))
	res.set("runtime.gc_cpu_frac", loop.gcFrac())
}

// runDSEFixed times fixed-budget single-island optimizations of DT-large
// with every default layer on.
func runDSEFixed(cfg runConfig, res *result) error {
	p, setup, err := newProblem(cfg, benchmarks.DTLarge())
	if err != nil {
		return err
	}
	opts := dse.Options{PopSize: cfg.Size.FixedPop, Generations: cfg.Size.FixedGens, Workers: runtime.NumCPU()}
	res.op(checkReference(p, opts, "dse-fixed/"+cfg.Size.Name))

	window := cfg.Duration
	if cfg.Trace {
		window /= 3 // the rest goes to the replica generation loops
	}
	replicaBudget := cfg.Duration - window
	var stats []dse.Stats
	loop := timedLoop(res, window, 2, setup, func(i int) (func() error, error) {
		o := opts
		o.Seed = mixSeed(cfg.Seed, i)
		r, err := dse.Optimize(p, o)
		if err != nil {
			return nil, err
		}
		stats = append(stats, r.Stats)
		return func() error { return checkFront(p, r) }, nil
	})
	res.setLatency(loop.samples, loop.busy)
	setDSEStats(res, stats, loop)
	if !cfg.Trace {
		return setup.report(res)
	}
	return traceReplica(cfg, res, p, replicaBudget)
}

// traceReplica runs the generation loop of a single-island SPEA-II run
// through the public stage calls, in untraced and traced pairs for at
// least budget, and reports per-candidate self time per stage and the
// tracing overhead.
func traceReplica(cfg runConfig, res *result, p *dse.Problem, budget time.Duration) error {
	rec := newRecorder()
	var traced, untraced []time.Duration
	cands := 0
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		seed := mixSeed(cfg.Seed, 1<<20+i)
		for _, r := range []*recorder{nil, rec} {
			t0 := time.Now()
			n, err := replica(p, cfg.Size.FixedPop, cfg.Size.FixedGens, seed, r)
			dt := time.Since(t0)
			res.op(err)
			if err != nil {
				return err
			}
			if r == nil {
				untraced = append(untraced, dt)
			} else {
				traced = append(traced, dt)
				cands += n
			}
		}
	}
	t, u := quantile(traced, 0.5).Seconds(), quantile(untraced, 0.5).Seconds()
	res.set("trace.overhead_frac", (t-u)/u)
	self := rec.selfTimes()
	for _, name := range []string{"dse.repair", "dse.decode", "platform.compile", "core.analyze",
		"reliability.assess", "power.expected", "dse.variation"} {
		res.set(name+"_ms", self[name].perMs(cands))
	}
	res.set("dse.select_ms", self["dse.select"].meanMs())
	return rec.write(cfg.SpanDir, fmt.Sprintf("spans-dse-fixed-%d.json", cfg.Seed))
}

// replica is the GA's generation loop (initial population, then parent
// selection, crossover, mutation, repair, evaluation and SPEA-II
// environmental selection per generation) evaluated candidate by
// candidate, with a span around every stage call. It returns the number
// of candidates evaluated.
func replica(p *dse.Problem, pop, gens int, seed int64, rec *recorder) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	sel := dse.SPEA2{}
	cands := 0
	evalAll := func(gen int64, root int, genomes []*dse.Genome) ([]*dse.Individual, error) {
		out := make([]*dse.Individual, 0, len(genomes))
		for _, g := range genomes {
			cand := rec.begin("dse.candidate", root, gen)
			rec.do("dse.repair", cand, gen, func() { p.Repair(g, rng) })
			ind, err := evaluateStages(p, g, rec, cand, gen)
			rec.end(cand)
			if err != nil {
				return nil, err
			}
			out = append(out, ind)
			cands++
		}
		return out, nil
	}
	root := rec.begin("dse.generation", -1, 0)
	var genomes []*dse.Genome
	for _, g := range p.SeedGenomes() {
		if len(genomes) < pop {
			genomes = append(genomes, g)
		}
	}
	for len(genomes) < pop {
		genomes = append(genomes, p.RandomGenome(rng))
	}
	popInd, err := evalAll(0, root, genomes)
	if err != nil {
		return 0, err
	}
	var archive []*dse.Individual
	rec.do("dse.select", root, 0, func() { archive = sel.Select(popInd, pop) })
	rec.end(root)
	for gen := int64(1); gen <= int64(gens); gen++ {
		root := rec.begin("dse.generation", -1, gen)
		offspring := make([]*dse.Genome, 0, pop)
		rec.do("dse.variation", root, gen, func() {
			parents := sel.Parents(archive, pop, rng)
			for i := 0; i < pop; i++ {
				a := parents[rng.Intn(len(parents))]
				b := parents[rng.Intn(len(parents))]
				child := p.Crossover(a.Genome, b.Genome, rng)
				p.Mutate(child, 0.08, rng) // dse.Options' default MutationRate
				offspring = append(offspring, child)
			}
		})
		evaluated, err := evalAll(gen, root, offspring)
		if err != nil {
			return 0, err
		}
		union := append(append([]*dse.Individual(nil), archive...), evaluated...)
		rec.do("dse.select", root, gen, func() { archive = sel.Select(union, pop) })
		rec.end(root)
	}
	return cands, nil
}

// evaluateStages scores a repaired genome the way the GA's fitness
// function does — decode (with hardening.Apply), compile, Algorithm 1,
// reliability, expected power or the overrun penalty — one span per stage.
func evaluateStages(p *dse.Problem, g *dse.Genome, rec *recorder, parent int, op int64) (*dse.Individual, error) {
	const penalty = 1e6
	var (
		ph  *dse.Phenotype
		sys *platform.System
		rep *core.Report
		rel *reliability.Assessment
		err error
	)
	if rec.do("dse.decode", parent, op, func() { ph, err = p.Decode(g) }); err != nil {
		return nil, err
	}
	if rec.do("platform.compile", parent, op, func() { sys, err = p.Compile(ph) }); err != nil {
		return nil, err
	}
	if rec.do("core.analyze", parent, op, func() { rep, err = core.Analyze(sys, ph.Dropped, p.Analysis) }); err != nil {
		return nil, err
	}
	if rec.do("reliability.assess", parent, op, func() { rel, err = reliability.Assess(p.Arch, ph.Manifest, ph.Mapping) }); err != nil {
		return nil, err
	}
	ind := &dse.Individual{Genome: g, Service: ph.Service, GraphWCRT: rep.GraphWCRT, Feasible: rep.Feasible() && rel.OK()}
	if ind.Feasible {
		var pw *power.Breakdown
		if rec.do("power.expected", parent, op, func() { pw, err = power.Expected(p.Arch, ph.Manifest, ph.Mapping, ph.Alloc) }); err != nil {
			return nil, err
		}
		ind.Power = pw.Total
		ind.Objectives = dse.Objectives{pw.Total, -ph.Service}
		return ind, nil
	}
	overrun := float64(len(rel.Violations))
	for gi, gr := range sys.Apps.Graphs {
		w, d := rep.GraphWCRT[gi], gr.EffectiveDeadline()
		if w.IsInfinite() {
			overrun += 10
		} else if w > d {
			overrun += float64(w-d) / float64(d)
		}
	}
	ind.Power = penalty * (1 + overrun)
	ind.Objectives = dse.Objectives{ind.Power, penalty}
	return ind, nil
}

// runDSEIslands times two-island optimizations of DT-med whose islands
// run in child processes over the pipe transport.
func runDSEIslands(cfg runConfig, res *result) error {
	p, setup, err := newProblem(cfg, benchmarks.DTMed())
	if err != nil {
		return err
	}
	opts := dse.Options{PopSize: cfg.Size.IslandPop, Generations: cfg.Size.IslandGens, Workers: runtime.NumCPU(),
		Islands: 2, MigrationInterval: cfg.Size.IslandInterval, Distributed: true}
	key := "dse-islands/" + cfg.Size.Name
	res.op(checkReference(p, opts, key))
	inProc := opts
	inProc.Distributed = false
	res.op(checkReference(p, inProc, key))

	var stats []dse.Stats
	var transport int64
	var traced, inProcess []time.Duration
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	loop := timedLoop(res, cfg.Duration, 2, setup, func(i int) (func() error, error) {
		o := opts
		o.Seed = mixSeed(cfg.Seed, i)
		in0, out0 := dse.TransportCounters()
		r, err := dse.Optimize(p, o)
		if err != nil {
			return nil, err
		}
		in1, out1 := dse.TransportCounters()
		transport += in1 - in0 + out1 - out0
		stats = append(stats, r.Stats)
		return func() error {
			if r.Stats.IslandTakeovers != 0 {
				return fmt.Errorf("seed %d: %d island takeovers on a healthy run", o.Seed, r.Stats.IslandTakeovers)
			}
			if err := checkFront(p, r); err != nil {
				return err
			}
			if i > 0 && !cfg.Trace {
				return nil
			}
			// The in-process islands run with identical options must
			// produce the identical archive; the traced run also times
			// both sides, traced, for the island overhead.
			timed := func(name string, o dse.Options, into *[]time.Duration) (*dse.Result, error) {
				var r *dse.Result
				var err error
				t0 := time.Now()
				rec.do(name, -1, int64(i), func() { r, err = dse.Optimize(p, o) })
				*into = append(*into, time.Since(t0))
				return r, err
			}
			ip := o
			ip.Distributed = false
			local, err := timed("dse.optimize.inprocess", ip, &inProcess)
			if err != nil {
				return err
			}
			if a, b := archiveDigest(r), archiveDigest(local); a != b {
				return fmt.Errorf("seed %d: child-process archive %s differs from in-process %s", o.Seed, a, b)
			}
			if !cfg.Trace {
				return nil
			}
			again, err := timed("dse.optimize.distributed", o, &traced)
			if err != nil {
				return err
			}
			if a, b := archiveDigest(r), archiveDigest(again); a != b {
				return fmt.Errorf("seed %d: repeated child-process run %s differs from %s", o.Seed, b, a)
			}
			return nil
		}, nil
	})
	res.setLatency(loop.samples, loop.busy)
	setDSEStats(res, stats, loop)
	res.set("dse.transport_kb_per_run", ratio(float64(transport)/1024, float64(len(stats))))
	if !cfg.Trace {
		return setup.report(res)
	}
	res.set("dse.island_overhead_s", quantile(traced, 0.5).Seconds()-quantile(inProcess, 0.5).Seconds())
	untraced := ms(quantile(loop.samples, 0.5))
	res.set("trace.overhead_frac", ratio(ms(quantile(traced, 0.5))-untraced, untraced))
	return rec.write(cfg.SpanDir, fmt.Sprintf("spans-dse-islands-%d.json", cfg.Seed))
}
