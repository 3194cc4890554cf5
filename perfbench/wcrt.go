package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"mcmap/internal/core"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/sim"
)

// verdict runs one design through platform.Compile and core.Analyze with
// the recommended configuration, a span per layer.
func verdict(d design, rec *recorder, op int64) (*platform.System, *core.Report, error) {
	var (
		sys *platform.System
		rep *core.Report
		err error
	)
	if rec.do("platform.compile", -1, op, func() { sys, err = platform.Compile(d.arch, d.apps, d.mapping, nil) }); err != nil {
		return nil, nil, err
	}
	if rec.do("core.analyze", -1, op, func() { rep, err = core.Analyze(sys, d.dropped, core.NewConfig()) }); err != nil {
		return nil, nil, err
	}
	return sys, rep, nil
}

// wcrtKey fingerprints a report's verdict and bounds.
func wcrtKey(rep *core.Report) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, rep.NormalOK, rep.CriticalOK, rep.GraphWCRT)
	return h.Sum64()
}

// checkSimBound is the safety property of the analysis (EXPERIMENTS.md
// E6): no simulated response of any application exceeds its analyzed
// WCRT, under random fault campaigns with random execution times and the
// deterministic worst-case fault trace.
func checkSimBound(d design, runs int, seed int64) error {
	sys, rep, err := verdict(d, nil, 0)
	if err != nil {
		return err
	}
	exceeds := func(gi int, r model.Time) bool {
		b := rep.GraphWCRT[gi]
		return !b.IsInfinite() && r > b
	}
	camp, err := sim.RunCampaign(sys, sim.CampaignConfig{Runs: runs, Seed: seed,
		Scale: 5 * sim.AutoFaultScale(sys), RandomExecTimes: true, Dropped: d.dropped})
	if err != nil {
		return err
	}
	for gi, st := range camp.Graphs {
		if st.Completed > 0 && exceeds(gi, st.Max) {
			return fmt.Errorf("%s: %s simulated response %v exceeds analyzed WCRT %v", d.bench, st.Name, st.Max, rep.GraphWCRT[gi])
		}
	}
	worst, err := sim.Run(sys, sim.Config{Dropped: d.dropped, Faults: sim.WorstFaults{}})
	if err != nil {
		return err
	}
	for gi, rs := range worst.GraphResponses {
		for _, r := range rs {
			if exceeds(gi, r) {
				return fmt.Errorf("%s: worst-case trace response %v of graph %d exceeds analyzed WCRT %v", d.bench, r, gi, rep.GraphWCRT[gi])
			}
		}
	}
	return nil
}

// sweepStats are the Algorithm 1 counters of a sweep.
type sweepStats struct {
	analyses, feasible               int
	analyzed, deduped, incrementally int
}

func (s *sweepStats) add(rep *core.Report) {
	s.analyses++
	if rep.Feasible() {
		s.feasible++
	}
	s.analyzed += rep.ScenariosAnalyzed
	s.deduped += rep.ScenariosDeduped
	s.incrementally += rep.ScenariosIncremental
}

// runWCRTSweep times verdicts for a seeded stream of distinct designs
// from all five paper benchmarks, one closed-loop caller, no sharing
// between designs.
func runWCRTSweep(cfg runConfig, res *result) error {
	probs, err := paperProblems()
	if err != nil {
		return err
	}
	pool, err := designPool(probs, cfg.Size.Sweep, cfg.Seed)
	if err != nil {
		return err
	}

	// Output check 1: simulation never beats the bound, on a seeded
	// sample of converged designs.
	rng := rand.New(rand.NewSource(mixSeed(cfg.Seed, 400)))
	var converged []design
	for _, d := range pool {
		if d.converged {
			converged = append(converged, d)
		}
	}
	rng.Shuffle(len(converged), func(i, j int) { converged[i], converged[j] = converged[j], converged[i] })
	for i := 0; i < cfg.Size.SimDesigns && i < len(converged); i++ {
		res.op(checkSimBound(converged[i], cfg.Size.SimRuns, mixSeed(cfg.Seed, 500+i)))
	}

	// Output check 2: a design revisited in a later pass over the pool
	// gets the identical verdict and bounds.
	keys := make([]uint64, len(pool))
	var st sweepStats
	sweep := func(window time.Duration, setup *setupSampler, rec *recorder) loopStats {
		return timedLoop(res, window, 1, setup, func(i int) (func() error, error) {
			k := i % len(pool)
			_, rep, err := verdict(pool[k], rec, int64(i))
			if err != nil {
				return nil, err
			}
			if rec != nil {
				st.add(rep)
			}
			return func() error {
				key := wcrtKey(rep)
				if keys[k] == 0 {
					keys[k] = key
				} else if keys[k] != key {
					return fmt.Errorf("%s design %d: verdict changed between passes", pool[k].bench, k)
				}
				return nil
			}, nil
		})
	}

	if !cfg.Trace {
		setup := newSetupSampler(cfg.Size.SetupBatches, cfg.Duration, func() (func(), error) {
			_, err := paperProblems()
			return nil, err
		})
		loop := sweep(cfg.Duration, setup, nil)
		res.setLatency(loop.samples, loop.busy)
		return setup.report(res)
	}
	untraced := ms(quantile(sweep(cfg.Duration/2, nil, nil).samples, 0.5))
	rec := newRecorder()
	loop := sweep(cfg.Duration/2, nil, rec)
	res.setLatency(loop.samples, loop.busy)
	res.set("trace.overhead_frac", ratio(ms(quantile(loop.samples, 0.5))-untraced, untraced))
	self := rec.selfTimes()
	res.set("platform.compile_ms", self["platform.compile"].meanMs())
	res.set("core.analyze_ms", self["core.analyze"].meanMs())
	if a := self["core.analyze"]; a != nil {
		res.set("core.analyze_p99_ms", ms(quantile(a.each, 0.99)))
	}
	res.set("core.backend_runs_per_analysis", ratio(float64(st.analyzed), float64(st.analyses)))
	res.set("core.dedup_ratio", ratio(float64(st.deduped), float64(st.analyzed+st.deduped)))
	res.set("core.incremental_share", ratio(float64(st.incrementally), float64(st.analyzed)))
	res.set("core.feasible_share", ratio(float64(st.feasible), float64(st.analyses)))
	res.set("runtime.alloc_kb_per_analysis", ratio(loop.alloc/1024, float64(st.analyses)))
	res.set("runtime.gc_cpu_frac", loop.gcFrac())
	return rec.write(cfg.SpanDir, fmt.Sprintf("spans-wcrt-sweep-%d.json", cfg.Seed))
}
