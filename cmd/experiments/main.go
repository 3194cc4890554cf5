// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Subcommands:
//
//	motivation  Figure 1  — the task-dropping motivational example
//	table2      Table 2   — WCRT of the Cruise critical applications under
//	                        Adhoc / WC-Sim / Proposed / Naive
//	dropgain    Sec. 5.2  — optimized power with vs. without task dropping
//	ratio       Sec. 5.2  — solutions rescued by dropping + re-execution share
//	pareto      Figure 5  — power/service Pareto front (DT-med)
//	ablation    design-choice studies: analysis backends, SPEA2 vs
//	            elitist selection, randomized repair, priority policy
//	related     Table 1   — the related-work taxonomy (static reprint)
//	all                   — everything above
//
// Use -quick for a fast smoke run (small GA populations and Monte-Carlo
// budgets); the default budgets take a few minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mcmap/cmd/internal/prof"
	"mcmap/internal/benchmarks"
	"mcmap/internal/dse"
	"mcmap/internal/experiments"
	"mcmap/internal/texttable"
)

func main() {
	// When re-exec'd as a distributed island worker (see -island-procs
	// and dse.Options.Distributed), serve the pipe protocol and exit.
	if os.Getenv(dse.IslandWorkerEnv) == "1" {
		if err := dse.RunIslandWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: island worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	quick := flag.Bool("quick", false, "small budgets for a fast smoke run")
	seed := flag.Int64("seed", 1, "seed for all stochastic components")
	workers := flag.Int("workers", 0, "worker budget shared by GA fitness evaluation and selection; each analysis runs on one worker (0 = GOMAXPROCS)")
	islands := flag.Int("islands", 1, "concurrent GA islands per optimization run (per-island seeds derive from -seed)")
	migrationInterval := flag.Int("migration-interval", 10, "generations between Pareto-elite ring migrations (multi-island runs)")
	islandProcs := flag.Bool("island-procs", false, "run each island in its own child process (GA subcommands; archives identical to in-process islands)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = usage
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		usage()
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	opts := gaOptions(*quick, *seed)
	opts.Workers = *workers
	opts.Islands = *islands
	opts.MigrationInterval = *migrationInterval
	opts.Distributed = *islandProcs
	mcRuns := 10000
	if *quick {
		mcRuns = 500
	}

	run := func(name string, f func() error) {
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			stopProf()
			os.Exit(1)
		}
		fmt.Printf("[%s finished in %.1fs]\n\n", name, time.Since(t0).Seconds())
	}
	defer stopProf()

	dispatch := map[string]func() error{
		"motivation": motivation,
		"table2":     func() error { return table2(mcRuns, *seed) },
		"dropgain":   func() error { return dropgain(opts) },
		"ratio":      func() error { return ratio(opts) },
		"pareto":     func() error { return pareto(opts) },
		"ablation":   func() error { return ablation(*quick, *seed, *workers, *islands, *migrationInterval) },
		"related":    related,
	}
	if cmd == "all" {
		for _, name := range []string{"related", "motivation", "table2", "dropgain", "ratio", "pareto", "ablation"} {
			run(name, dispatch[name])
		}
		return
	}
	f, ok := dispatch[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n\n", cmd)
		usage()
		stopProf()
		os.Exit(2)
	}
	run(cmd, f)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: experiments [-quick] [-seed N] [-workers N] [-islands K] [-migration-interval M] [-cpuprofile F] [-memprofile F] <subcommand>

subcommands:
  motivation   Figure 1 motivational example
  table2       Table 2 (Cruise WCRT comparison)
  dropgain     Section 5.2 power gain of task dropping
  ratio        Section 5.2 dropping-rescue ratio
  pareto       Figure 5 Pareto front (DT-med)
  ablation     design-choice studies (backends, selector, repair, policy)
  related      Table 1 related-work taxonomy
  all          run everything
`)
}

func gaOptions(quick bool, seed int64) dse.Options {
	if quick {
		return dse.Options{PopSize: 32, Generations: 30, Seed: seed}
	}
	// The paper uses 100/100/100 with 5000 generations; 100x300 reaches a
	// stable archive on these benchmarks in minutes instead of hours.
	return dse.Options{PopSize: 100, Generations: 300, Seed: seed}
}

func motivation() error {
	m, err := experiments.Motivation()
	if err != nil {
		return err
	}
	fmt.Println(m.Render())
	fmt.Printf("figure-1 narrative reproduced: %v\n", m.Works())
	return nil
}

func table2(runs int, seed int64) error {
	res, err := experiments.Table2(experiments.Table2Config{WCSimRuns: runs, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

func dropgain(opts dse.Options) error {
	rows, err := experiments.DropGains([]string{"dt-med", "dt-large", "cruise"}, opts)
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderDropGains(rows))
	return nil
}

func ratio(opts dse.Options) error {
	rows, err := experiments.RescueRatios(benchmarks.Names(), opts)
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderRescue(rows))
	return nil
}

func pareto(opts dse.Options) error {
	r, err := experiments.Pareto("dt-med", opts)
	if err != nil {
		return err
	}
	fmt.Println(r.Render())
	return nil
}

func ablation(quick bool, seed int64, workers, islands, migrationInterval int) error {
	opts := dse.Options{PopSize: 48, Generations: 60, Seed: seed, Workers: workers,
		Islands: islands, MigrationInterval: migrationInterval}
	if quick {
		opts.PopSize, opts.Generations = 24, 15
	}
	r, err := experiments.Ablations(opts)
	if err != nil {
		return err
	}
	fmt.Println(r.Render())
	return nil
}

// related reprints Table 1 (the related-work taxonomy); it is a literature
// table, not an experiment.
func related() error {
	t := texttable.New("Table 1: scheduling/analysis techniques in previous fault-tolerant mapping work")
	t.Row("", "Mixed-Criticality", "Scheduling", "Analysis")
	t.Sep()
	t.Row("[2] Pop et al.", "none", "static", "makespan")
	t.Row("[3] Bolchini et al.", "FI/FD/FT", "static", "makespan")
	t.Row("[4] v. Stralen et al.", "none", "dynamic", "simulation")
	t.Row("[5] Axer et al.", "FI/FT", "dynamic", "probabilistic")
	t.Row("[6] Kang et al.", "failure probability", "dynamic", "worst-case")
	t.Sep()
	t.Row("this work (paper)", "task dropping", "dynamic", "worst-case")
	fmt.Println(t.String())
	return nil
}
