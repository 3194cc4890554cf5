// Command wcrtcheck analyzes a mapped design: it loads a JSON problem
// spec (architecture + applications + mapping), runs the paper's
// Algorithm 1 and the comparison estimators, and prints per-application
// worst-case response times with deadline verdicts.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mcmap"
)

func main() {
	spec := flag.String("spec", "", "JSON problem spec with a mapping (required)")
	drop := flag.String("drop", "*", "comma-separated droppable applications to drop in critical mode; '*' = all, '' = none")
	simRuns := flag.Int("sim", 0, "additionally run this many Monte-Carlo failure profiles")
	slack := flag.Bool("slack", false, "report per-task WCET slack (sensitivity analysis)")
	seed := flag.Int64("seed", 1, "Monte-Carlo seed")
	flag.Parse()
	if *spec == "" {
		flag.Usage()
		os.Exit(2)
	}
	s, err := mcmap.LoadSpec(*spec)
	if err != nil {
		log.Fatal(err)
	}
	if s.Mapping == nil {
		log.Fatal("wcrtcheck: spec has no mapping; produce one with ftmap -o")
	}
	// Static pre-flight: Error diagnostics mean the analyses' verdicts
	// would be meaningless, so refuse to run; warnings are advisory.
	if res := mcmap.Validate(s); len(res.Diags) > 0 {
		res.Format(os.Stderr)
		if res.HasErrors() {
			os.Exit(1)
		}
	}
	sys, err := mcmap.Compile(s.Architecture, s.Apps, s.Mapping)
	if err != nil {
		log.Fatal(err)
	}

	dropped, err := mcmap.ParseDropList(s.Apps, *drop)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mcmap.AnalyzeWCRT(sys, dropped)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dropped set T_d = %v\n", dropped)
	fmt.Printf("%-20s %12s %12s %10s %s\n", "application", "WCRT", "deadline", "class", "verdict")
	for _, g := range s.Apps.Graphs {
		class := "critical"
		if g.Droppable() {
			class = "droppable"
		}
		w := rep.WCRTOf(g.Name)
		verdict := "ok"
		if w > g.EffectiveDeadline() {
			verdict = "MISS"
		}
		fmt.Printf("%-20s %12v %12v %10s %s\n", g.Name, w, g.EffectiveDeadline(), class, verdict)
	}
	fmt.Printf("\nfeasible: %v (normal-state %v, critical-state %v)\n", rep.Feasible(), rep.NormalOK, rep.CriticalOK)
	fmt.Printf("scenarios analyzed: %d (deduplicated: %d)\n", rep.ScenariosAnalyzed, rep.ScenariosDeduped)

	if *slack {
		rows, err := mcmap.Sensitivity(sys, dropped)
		if err != nil {
			fmt.Printf("\nsensitivity: %v\n", err)
		} else {
			fmt.Printf("\nper-task WCET slack (largest feasible growth):\n")
			fmt.Printf("%-24s %12s %12s %10s\n", "task", "wcet", "max wcet", "growth")
			for _, r := range rows {
				fmt.Printf("%-24s %12v %12v %9.1f%%\n", r.Task, r.WCET, r.MaxWCET, r.GrowthPct)
			}
		}
	}

	if *simRuns > 0 {
		est := mcmap.NewWCSim(*simRuns, *seed)
		obs, err := est.GraphWCRTs(sys, dropped)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nMonte-Carlo (%d profiles):\n", *simRuns)
		for gi, g := range s.Apps.Graphs {
			bound := rep.GraphWCRT[gi]
			fmt.Printf("%-20s observed %12v  analyzed %12v  margin %.1f%%\n",
				g.Name, obs[gi], bound, 100*float64(bound-obs[gi])/float64(bound))
		}
	}
}
