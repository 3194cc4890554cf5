package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"mcmap/internal/platform"
	"mcmap/internal/sched"
)

// scenarioJob is one pre-generated, deduplicated scenario awaiting its
// backend invocation.
type scenarioJob struct {
	sc   Scenario
	exec []sched.ExecBounds
}

// helperCostBudget is the minimum amount of measured analysis work that
// justifies one extra fan-out worker: submission, result hand-off and
// cross-core cache traffic cost a few microseconds per helper, so a
// helper that cannot absorb at least this much work makes the run
// slower. The per-job cost is measured, not guessed — job 0 runs inline
// under a timer and its cost scales the fan-out width and chunk grain
// for the rest of the batch (small systems converge in a few
// microseconds, large ones are orders of magnitude heavier; a static
// grain is wrong for one of them on every fixture).
const helperCostBudget = 40 * time.Microsecond

// chunksPerWorker balances claim overhead against load balance: each
// worker claims its share of the remaining jobs in about this many
// chunks, so stragglers can steal from a slow worker while cheap jobs
// still amortize the shared-cursor atomics.
const chunksPerWorker = 4

// jobRunner is one worker's analysis context: a pinned backend session
// when the analyzer supports it (per-worker scratch arena, no freelist
// mutex on the per-job path). Not safe for concurrent use; each worker
// owns one.
type jobRunner struct {
	analyzer sched.Analyzer
	sys      *platform.System
	ses      *sched.Session
}

func newJobRunner(analyzer sched.Analyzer, sys *platform.System) *jobRunner {
	r := &jobRunner{analyzer: analyzer, sys: sys}
	if sa, ok := analyzer.(sched.SessionAnalyzer); ok {
		r.ses = sa.OpenSession(sys)
	}
	return r
}

func (r *jobRunner) close() { r.ses.Close() }

// run executes one scenario's backend invocation. Session and
// session-free paths produce byte-identical results; the session merely
// owns the scratch.
func (r *jobRunner) run(job *scenarioJob) (*sched.Result, error) {
	if r.ses != nil {
		return r.ses.Analyze(job.exec)
	}
	return r.analyzer.Analyze(r.sys, job.exec)
}

// analyzeScenarios runs the backend over every job, fanning out over
// Config.Workers goroutines when the backend is concurrency-safe.
// results[i] always corresponds to jobs[i], so callers merge in
// deterministic trigger order regardless of scheduling. The per-job
// errors collapse to the first (lowest-index) one, matching the error
// the sequential engine would surface.
func analyzeScenarios(analyzer sched.Analyzer, sys *platform.System, jobs []scenarioJob, cfg Config) ([]*sched.Result, error) {
	results := make([]*sched.Result, len(jobs))
	workers := cfg.workers(analyzer)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// More workers than schedulable threads cannot run concurrently:
	// they only add claim contention and submission overhead. On a
	// single-threaded runtime every width collapses to the sequential
	// path — byte-identical results either way.
	if gmp := runtime.GOMAXPROCS(0); workers > gmp {
		workers = gmp
	}
	if cfg.Pool != nil && workers > cfg.Pool.Cap() {
		workers = cfg.Pool.Cap()
	}
	if workers <= 1 || len(jobs) < 2 {
		r := newJobRunner(analyzer, sys)
		defer r.close()
		for i := range jobs {
			if err := ctxErr(cfg.Ctx); err != nil {
				return nil, err
			}
			res, err := r.run(&jobs[i])
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}

	errs := make([]error, len(jobs))
	profCtx := cfg.ProfCtx
	if profCtx == nil {
		profCtx = context.Background()
	}

	// Job 0 runs inline under a timer: its measured cost decides how
	// many helpers the remaining jobs can keep busy, and the chunk
	// grain each claim should carry. Timing steers only the schedule,
	// never the results, so determinism of Reports is unaffected.
	r0 := newJobRunner(analyzer, sys)
	start := time.Now() //lint:allow determinism measured per-job cost steers fan-out width only, results are schedule-independent
	results[0], errs[0] = r0.run(&jobs[0])
	cost := time.Since(start) //lint:allow determinism see above
	r0.close()

	rem := len(jobs) - 1
	helpers := workers - 1
	if est := cost * time.Duration(rem); est < helperCostBudget*time.Duration(helpers) {
		helpers = int(est / helperCostBudget)
	}
	chunk := rem / ((helpers + 1) * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}

	var next atomic.Int64
	next.Store(1)
	// Cancellation: workers re-check the context per chunk claim, so a
	// cancelled analysis stops fanning out within one chunk's worth of
	// work and FanOut's join returns promptly, releasing the pool slots.
	claim := func() (int, int, bool) {
		if ctxErr(cfg.Ctx) != nil {
			return 0, 0, false
		}
		lo := int(next.Add(int64(chunk))) - chunk
		if lo >= len(jobs) {
			return 0, 0, false
		}
		hi := lo + chunk
		if hi > len(jobs) {
			hi = len(jobs)
		}
		return lo, hi, true
	}
	// work claims chunks off the shared cursor until none remain. It
	// opens its session only after securing a first chunk, so a late
	// helper draining an exhausted cursor (the workpool.FanOut
	// contract) costs nothing. Helpers run under the caller's pprof
	// labels (Config.ProfCtx) plus phase=analyze, so profiles attribute
	// scenario work to the right island and phase.
	work := func() {
		lo, hi, ok := claim()
		if !ok {
			return
		}
		pprof.Do(profCtx, pprof.Labels("phase", "analyze"), func(context.Context) {
			r := newJobRunner(analyzer, sys)
			defer r.close()
			for {
				for i := lo; i < hi; i++ {
					results[i], errs[i] = r.run(&jobs[i])
				}
				if lo, hi, ok = claim(); !ok {
					return
				}
			}
		})
	}

	if cfg.Pool != nil {
		// Persistent pool workers; the caller participates inline and
		// FanOut's active-counter wait covers exactly the helpers that
		// started (claimed work), so queued-but-unstarted helpers never
		// stall the join.
		cfg.Pool.FanOut(helpers+1, work)
	} else {
		var wg sync.WaitGroup
		for k := 0; k < helpers; k++ {
			wg.Add(1)
			//lint:allow gospawn transient fan-out helpers when no shared pool is configured (bench/test paths)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
	}

	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
