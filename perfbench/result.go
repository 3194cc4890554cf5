package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// commit is stamped by run.sh through -ldflags; "unknown" outside a git
// checkout.
var commit = "unknown"

// metricDef names one metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees. Every workload has
// one unit operation (a fixed-budget optimization, a verdict, a request),
// so the latency and throughput metrics are defined on all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are the traced run's metrics. A layer that a workload does not
// reach reports 0 there: that workload is the one that bypasses it.
var perLayer = []metricDef{
	{"op.samples", "count"},
	{"trace.overhead_frac", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_kb_per_eval", "KiB"},
	{"runtime.alloc_kb_per_analysis", "KiB"},
	{"dse.evaluated", "count"},
	{"dse.fitness_hit_ratio", "ratio"},
	{"dse.bypassed_gens", "count"},
	{"dse.batch_hit_ratio", "ratio"},
	{"dse.repair_ms", "ms"},
	{"dse.decode_ms", "ms"},
	{"dse.variation_ms", "ms"},
	{"dse.select_ms", "ms"},
	{"dse.migrations", "count"},
	{"dse.takeovers", "count"},
	{"dse.transport_kb_per_run", "KiB"},
	{"dse.island_overhead_s", "s"},
	{"platform.compile_ms", "ms"},
	{"reliability.assess_ms", "ms"},
	{"power.expected_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"core.analyze_p99_ms", "ms"},
	{"core.struct_hit_ratio", "ratio"},
	{"core.dedup_ratio", "ratio"},
	{"core.backend_runs_per_analysis", "count"},
	{"core.incremental_share", "ratio"},
	{"core.feasible_share", "ratio"},
	{"model.decode_ms", "ms"},
	{"validate.check_ms", "ms"},
	{"validate.fingerprint_ms", "ms"},
	{"service.result_hit_ratio", "ratio"},
	{"service.coalesced_ratio", "ratio"},
	{"service.runs_per_request", "ratio"},
	{"service.cold_p50_ms", "ms"},
	{"service.warm_p50_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.queue_depth_max", "count"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	Seed     int64
	Duration time.Duration
	Trace    bool
	Size     size
	SpanDir  string
}

// result is what a workload run produced: operation counts, metric values
// and the stamp that identifies where they were measured.
type result struct {
	workload  string
	cfg       runConfig
	attempted int
	failed    int
	values    map[string]float64
}

func newResult(workload string, cfg runConfig) *result {
	return &result{workload: workload, cfg: cfg, values: map[string]float64{}}
}

// op counts one attempted operation; a non-nil err marks it failed and is
// reported on standard error.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %v\n", r.workload, err)
	}
}

// set records a metric value.
func (r *result) set(name string, v float64) { r.values[name] = v }

// print writes the stamp, a readable metric table and, as the last line,
// the JSON result object.
func (r *result) print(w io.Writer) error {
	defs := endToEnd
	if r.cfg.Trace {
		defs = perLayer
	}
	metrics := make(map[string]map[string]any, len(defs))
	bw := bufio.NewWriter(w)
	stamp, err := json.Marshal(map[string]any{"stamp": r.stamp()})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", stamp)
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !r.cfg.Trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.workload, d.Name, v)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
		fmt.Fprintf(bw, "# %-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", line)
	return bw.Flush()
}

// stamp identifies the machine, toolchain and inputs of a result.
func (r *result) stamp() map[string]any {
	return map[string]any{
		"workload":   r.workload,
		"seed":       r.cfg.Seed,
		"seconds":    r.cfg.Duration.Seconds(),
		"trace":      r.cfg.Trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setLatency records the end-to-end latency and throughput metrics of a
// run's unit operations, completed in elapsed.
func (r *result) setLatency(samples []time.Duration, elapsed time.Duration) {
	r.set("op_p50_ms", ms(quantile(samples, 0.50)))
	r.set("op_p99_ms", ms(quantile(samples, 0.99)))
	r.set("ops_per_s", float64(len(samples))/elapsed.Seconds())
	r.set("op.samples", float64(len(samples)))
}

// quantile returns the nearest-rank q-quantile of the samples.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters are the process's cumulative allocation and CPU
// counters.
type runtimeCounters struct {
	alloc, gcCPU, cpu float64
}

func readRuntime() runtimeCounters {
	samples := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	return runtimeCounters{
		alloc: float64(samples[0].Value.Uint64()),
		gcCPU: samples[1].Value.Float64(),
		cpu:   samples[2].Value.Float64(),
	}
}

// mixSeed derives the i-th sub-seed of a workload seed (SplitMix64).
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}
