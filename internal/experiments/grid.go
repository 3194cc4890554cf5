package experiments

import (
	"runtime"
	"sync"

	"mcmap/internal/dse"
	"mcmap/internal/workpool"
)

// The experiments grid is trivially parallel at the cell level: every
// (benchmark, seed, mode) GA run and every (strategy, estimator) WCRT
// estimate is independent of the others. The helpers here run those
// cells concurrently while all their GA work — fitness evaluations and
// SPEA-II kernels — draws from ONE
// shared workpool, so cmd/experiments saturates the machine end to end
// without oversubscribing it. Cell results land in indexed slots and
// every reduction runs over them in slot order, so outputs are identical
// to the historical sequential loops.

// sharedPool returns opts with a worker pool wired in, creating one of
// opts.Workers slots (default GOMAXPROCS) when the caller didn't supply
// one already.
func sharedPool(opts dse.Options) dse.Options {
	if opts.Pool == nil {
		w := opts.Workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		opts.Pool = workpool.New(w)
	}
	return opts
}

// runCells runs fn(0..n-1) on concurrent coordinator goroutines and
// returns the first (lowest-index) error. The coordinators themselves
// are not pool-bounded — each one immediately blocks in work that is.
func runCells(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		//lint:allow gospawn grid-cell coordinator; immediately blocks in pool-bounded Optimize work
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DropGains runs the Section 5.2 with/without-dropping comparison over
// several benchmarks concurrently on one shared worker pool (every
// benchmark expands to 3 seeds × 2 modes = 6 GA runs; all of them run
// against the pool at once). Results are in input order.
func DropGains(names []string, opts dse.Options) ([]*DropGainResult, error) {
	opts = sharedPool(opts)
	out := make([]*DropGainResult, len(names))
	err := runCells(len(names), func(i int) error {
		r, err := DropGain(names[i], opts)
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RescueRatios runs the Section 5.2 rescue-ratio study over several
// benchmarks concurrently on one shared worker pool. Results are in
// input order.
func RescueRatios(names []string, opts dse.Options) ([]*RescueResult, error) {
	opts = sharedPool(opts)
	out := make([]*RescueResult, len(names))
	err := runCells(len(names), func(i int) error {
		r, err := RescueRatio(names[i], opts)
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
