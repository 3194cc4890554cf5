// Command perfbench is the end-to-end benchmark of the mapping pipeline.
// It drives the system from outside, through the public functions of its
// packages, on four workloads:
//
//	dse-fixed    fixed-budget single-island dse.Optimize on DT-large
//	wcrt-sweep   platform.Compile + core.Analyze over a seeded design stream
//	daemon-mix   mcmapd /analyze over loopback HTTP: cold, repeat, re-spelled
//	dse-islands  two-island dse.Optimize with child-process islands on DT-med
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// separate traced run. README.md holds the metric catalog.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mcmap/internal/dse"
)

func main() {
	// Distributed islands re-exec this binary; the child must serve the
	// island protocol on stdin/stdout before anything else runs.
	if os.Getenv(dse.IslandWorkerEnv) == "1" {
		if err := dse.RunIslandWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: island worker:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 10, "measured duration of the run in seconds")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the traced run and prints per-layer metrics")
	spanDir := flag.String("span-dir", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		Seed:     *seed,
		Duration: time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		Size:     fullSize,
		SpanDir:  *spanDir,
	}
	res, err := run(*workload, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
