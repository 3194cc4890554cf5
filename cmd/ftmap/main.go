// Command ftmap runs the fault-tolerant mapping optimization (the
// paper's Section 4 DSE) on a bundled benchmark or on a JSON problem
// spec, and reports the best design and the power/service Pareto front.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mcmap"
	"mcmap/cmd/internal/prof"
	"mcmap/internal/dse"
)

func main() {
	// Distributed-island workers re-exec this binary with the marker
	// environment variable set; they must become protocol servers on
	// stdin/stdout before any flag parsing or validation runs.
	if os.Getenv(dse.IslandWorkerEnv) == "1" {
		if err := dse.RunIslandWorker(os.Stdin, os.Stdout); err != nil {
			log.Fatal("island worker: ", err)
		}
		return
	}
	bench := flag.String("bench", "", "bundled benchmark name ("+strings.Join(mcmap.BenchmarkNames(), ", ")+")")
	spec := flag.String("spec", "", "JSON problem spec (architecture + apps); alternative to -bench")
	check := flag.Bool("check", false, "validate the instance and exit (non-zero when Error diagnostics are found); no optimization runs")
	pop := flag.Int("pop", 100, "GA population size")
	gens := flag.Int("gens", 300, "GA generations")
	seed := flag.Int64("seed", 1, "GA seed")
	workers := flag.Int("workers", 0, "worker budget shared by GA fitness evaluation and selection; each analysis runs on one worker (0 = GOMAXPROCS)")
	islands := flag.Int("islands", 1, "concurrent GA islands sharing the worker budget (1 = the classic single trajectory; per-island seeds derive from -seed)")
	migrationInterval := flag.Int("migration-interval", 10, "generations between Pareto-elite ring migrations (multi-island runs)")
	islandProcs := flag.Bool("island-procs", false, "run each island in its own child process (multicore scaling past the shared Go heap); archives are byte-identical to the in-process mode")
	islandHosts := flag.String("island-hosts", "", "comma-separated fleet worker addresses (host:port of `mcmapd -worker` processes) to run island legs on; archives are byte-identical to the in-process mode, and a lost worker's island is recomputed locally")
	noDrop := flag.Bool("nodrop", false, "disable task dropping (T_d always empty)")
	track := flag.Bool("track", false, "track the dropping-rescue ratio (doubles analysis cost)")
	prune := flag.Bool("prune", false, "skip dominated fault scenarios inside every fitness evaluation (same WCRTs and verdicts; fewer backend runs)")
	out := flag.String("o", "", "write the best design's spec (arch+apps+mapping) to this JSON file")
	csvPrefix := flag.String("csv", "", "write <prefix>-front.csv and <prefix>-history.csv for plotting")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(stopProf, err)
	}
	defer stopProf()

	var arch *mcmap.Architecture
	var apps *mcmap.AppSet
	var mapping mcmap.Mapping
	switch {
	case *bench != "":
		b, err := mcmap.BenchmarkByName(*bench)
		if err != nil {
			fatal(stopProf, err)
		}
		arch, apps = b.Arch, b.Apps
	case *spec != "":
		// Lenient load: in -check mode the validator reports every
		// structural problem itself instead of dying on the first.
		s, err := mcmap.LoadSpecLenient(*spec)
		if err != nil {
			fatal(stopProf, err)
		}
		arch, apps, mapping = s.Architecture, s.Apps, s.Mapping
	default:
		flag.Usage()
		os.Exit(2)
	}

	// Static pre-flight: always run, so a doomed instance never reaches
	// the GA. With -check, the diagnostics ARE the output.
	res0 := mcmap.ValidateSystem(arch, apps, mapping, mcmap.DefaultHardeningLimits())
	if len(res0.Diags) > 0 {
		res0.Format(os.Stderr)
	}
	if *check {
		stopProf()
		if res0.HasErrors() {
			os.Exit(1)
		}
		fmt.Println("spec validates clean")
		return
	}
	if res0.HasErrors() {
		fatal(stopProf, res0.Err())
	}

	p, err := mcmap.NewProblem(arch, apps)
	if err != nil {
		fatal(stopProf, err)
	}
	res, err := mcmap.Optimize(p, mcmap.DSEOptions{
		PopSize: *pop, Generations: *gens, Seed: *seed, Workers: *workers,
		Islands: *islands, MigrationInterval: *migrationInterval, Distributed: *islandProcs,
		IslandHosts:     splitHosts(*islandHosts),
		DisableDropping: *noDrop, TrackDroppingGain: *track, PruneDominated: *prune,
	})
	if err != nil {
		fatal(stopProf, err)
	}

	fmt.Printf("evaluated %d candidates, %d feasible\n", res.Stats.Evaluated, res.Stats.Feasible)
	fmt.Printf("scenario analyses: %d run (%d deduplicated, %d pruned)\n",
		res.Stats.ScenariosAnalyzed, res.Stats.ScenariosDeduped, res.Stats.ScenariosPruned)
	if len(res.Stats.IslandStats) > 0 {
		fmt.Printf("islands: %d, %d migrants exchanged\n", len(res.Stats.IslandStats), res.Stats.Migrations)
		for _, st := range res.Stats.IslandStats {
			best := "no feasible design"
			if st.BestPower >= 0 {
				best = fmt.Sprintf("best %.3f W", st.BestPower)
			}
			fmt.Printf("  island %d: %d evaluated (%d feasible), migrants %d in / %d out, %s\n",
				st.Island, st.Evaluated, st.Feasible, st.MigrantsIn, st.MigrantsOut, best)
		}
	}
	if *track {
		fmt.Printf("rescued by dropping: %.2f%%; re-execution share: %.2f%%\n",
			100*res.Stats.RescueRatio(), 100*res.Stats.ReExecutionShare())
	}
	if res.Best == nil {
		fmt.Println("no feasible design found — increase -gens or relax the constraints")
		stopProf()
		os.Exit(1)
	}
	fmt.Printf("best design: %.3f W, service %.0f, dropped %v\n",
		res.Best.Power, res.Best.Service, res.Best.Dropped)
	fmt.Println("\npower/service Pareto front:")
	for _, ind := range res.Front {
		fmt.Printf("  %.3f W  service %.0f  dropped %v\n", ind.Power, ind.Service, ind.Dropped)
	}

	if *csvPrefix != "" {
		for _, f := range []struct {
			suffix string
			write  func(*os.File) error
		}{
			{"-front.csv", func(fh *os.File) error { return dse.WriteFrontCSV(fh, res) }},
			{"-history.csv", func(fh *os.File) error { return dse.WriteHistoryCSV(fh, res) }},
		} {
			fh, err := os.Create(*csvPrefix + f.suffix)
			if err != nil {
				fatal(stopProf, err)
			}
			if err := f.write(fh); err != nil {
				fatal(stopProf, err)
			}
			fh.Close()
			fmt.Println("wrote", *csvPrefix+f.suffix)
		}
	}

	if *out != "" {
		ph, err := p.Decode(res.Best.Genome)
		if err != nil {
			fatal(stopProf, err)
		}
		if err := mcmap.SaveSpec(*out, &mcmap.Spec{
			Architecture: arch, Apps: ph.Manifest.Apps, Mapping: ph.Mapping,
		}); err != nil {
			fatal(stopProf, err)
		}
		fmt.Printf("\nbest design written to %s\n", *out)
	}
}

func splitHosts(s string) []string {
	if s == "" {
		return nil
	}
	var hosts []string
	for _, h := range strings.Split(s, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// fatal flushes any in-flight profiles (os.Exit skips defers) and dies.
func fatal(stopProf func(), err error) {
	if stopProf != nil {
		stopProf()
	}
	log.Fatal(err)
}
