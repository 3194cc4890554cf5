package main

import (
	"fmt"
	"sort"
	"time"
)

// size fixes the work of one operation and the shape of every generated
// input. fullSize is what BENCHMARK.json measures.
type size struct {
	Name string
	// SetupBatches is how many batches of set-ups a run times; the
	// median batch, per set-up, is setup_s.
	SetupBatches int
	// FixedPop x FixedGens is the dse-fixed budget on DT-large.
	FixedPop, FixedGens int
	// IslandPop x IslandGens (migrating every IslandInterval generations)
	// is the per-island dse-islands budget on DT-med.
	IslandPop, IslandGens, IslandInterval int
	// Sweep is the wcrt-sweep design pool; Daemon is the pool the
	// daemon-mix cold specs are drawn around.
	Sweep, Daemon poolShape
	// SimDesigns converged designs are simulated SimRuns times each
	// against their analyzed bound.
	SimDesigns, SimRuns int
}

var fullSize = size{
	Name:         "full",
	SetupBatches: 31,
	FixedPop:     32, FixedGens: 30,
	IslandPop: 24, IslandGens: 12, IslandInterval: 3,
	Sweep:      poolShape{gaRuns: 2, gaPop: 16, gaGens: 8, offspring: 60, random: 140},
	Daemon:     poolShape{gaRuns: 1, gaPop: 16, gaGens: 8, offspring: 20, random: 40},
	SimDesigns: 4, SimRuns: 12,
}

var workloads = map[string]func(runConfig, *result) error{
	"dse-fixed":   runDSEFixed,
	"wcrt-sweep":  runWCRTSweep,
	"daemon-mix":  runDaemonMix,
	"dse-islands": runDSEIslands,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and returns its result.
func run(name string, cfg runConfig) (*result, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	res := newResult(name, cfg)
	if err := fn(cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res.set("peak_rss_mb", peakRSSMiB())
	return res, nil
}

// loopStats is what timedLoop measured over the successful operations.
type loopStats struct {
	samples []time.Duration
	busy    time.Duration // summed operation time
	alloc   float64       // bytes allocated inside the operations
	gcCPU   float64       // GC CPU seconds inside the operations
	cpu     float64       // all CPU seconds inside the operations
}

func (l *loopStats) gcFrac() float64 { return ratio(l.gcCPU, l.cpu) }

// timedLoop runs op until d has elapsed and at least minOps operations
// were attempted, timing each one and counting it in res. The output
// check op returns runs untimed after it and counts as one more
// operation. Set-up batches that fall due are timed between operations.
func timedLoop(res *result, d time.Duration, minOps int, setup *setupSampler, op func(i int) (check func() error, err error)) loopStats {
	var l loopStats
	start := time.Now()
	for i := 0; time.Since(start) < d || i < minOps; i++ {
		setup.tick()
		before := readRuntime()
		t0 := time.Now()
		check, err := op(i)
		dt := time.Since(t0)
		after := readRuntime()
		res.op(err)
		if err != nil {
			continue
		}
		l.samples = append(l.samples, dt)
		l.busy += dt
		l.alloc += after.alloc - before.alloc
		l.gcCPU += after.gcCPU - before.gcCPU
		l.cpu += after.cpu - before.cpu
		if check != nil {
			res.op(check())
		}
	}
	return l
}

// setupBatch is how many set-ups one setup_s sample times back to back.
// One set-up takes tens to hundreds of microseconds; a batch is long
// enough that timer and scheduler noise average out within it.
const setupBatch = 20

// setupSampler times the workload's set-up in batches spread evenly over
// the measured window, between operations, rather than once at the start:
// a microsecond-scale set-up follows the machine's speed of the moment,
// so setup_s then averages over the same stretch of time as the operation
// metrics. A nil sampler times nothing.
type setupSampler struct {
	fn      func() (teardown func(), err error)
	batches int
	every   time.Duration
	next    time.Time
	times   []time.Duration
	err     error
}

func newSetupSampler(batches int, window time.Duration, fn func() (teardown func(), err error)) *setupSampler {
	return &setupSampler{fn: fn, batches: batches, every: window / time.Duration(batches)}
}

// tick times one batch if the next one is due.
func (s *setupSampler) tick() {
	if s == nil || len(s.times) >= s.batches || time.Now().Before(s.next) {
		return
	}
	s.next = time.Now().Add(s.every)
	s.batch()
}

// batch times setupBatch calls of fn; the teardowns they return run
// untimed after it.
func (s *setupSampler) batch() {
	if s.err != nil {
		return
	}
	var teardowns []func()
	t0 := time.Now()
	for i := 0; i < setupBatch && s.err == nil; i++ {
		var teardown func()
		if teardown, s.err = s.fn(); teardown != nil {
			teardowns = append(teardowns, teardown)
		}
	}
	dt := time.Since(t0)
	for _, teardown := range teardowns {
		teardown()
	}
	s.times = append(s.times, dt/setupBatch)
}

// report times the batches still missing and records the median batch
// time per set-up as setup_s. A nil sampler records nothing.
func (s *setupSampler) report(res *result) error {
	if s == nil {
		return nil
	}
	for s.err == nil && len(s.times) < s.batches {
		s.batch()
	}
	if s.err != nil {
		return fmt.Errorf("set-up: %w", s.err)
	}
	res.set("setup_s", quantile(s.times, 0.5).Seconds())
	return nil
}
