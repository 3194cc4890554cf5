// Command gantt simulates a mapped design from a JSON spec and renders
// the schedule as an ASCII Gantt chart, optionally under a directed
// fault and with task dropping.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mcmap"
)

func main() {
	spec := flag.String("spec", "", "JSON problem spec with a mapping (required)")
	drop := flag.String("drop", "", "comma-separated applications to drop in critical mode ('*' = all droppable)")
	fault := flag.String("fault", "", "inject one fault: task[,instance[,attempt]] (e.g. 'ctrl/sense' or 'ctrl/sense,0,0')")
	cell := flag.Int64("cell", 0, "microseconds per Gantt cell (0 = auto)")
	horizon := flag.Int("horizon", 1, "hyperperiods to simulate")
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
		log.Fatal("gantt: spec has no mapping")
	}
	// Static pre-flight: refuse to simulate designs the validator can
	// prove broken (Error diagnostics); warnings are advisory.
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

	cfg := mcmap.SimConfig{Dropped: dropped, RecordTrace: true, Horizon: *horizon}
	if *fault != "" {
		parts := strings.Split(*fault, ",")
		task := mcmap.TaskID(strings.TrimSpace(parts[0]))
		inst, attempt := 0, 0
		if len(parts) > 1 {
			fmt.Sscanf(parts[1], "%d", &inst)
		}
		if len(parts) > 2 {
			fmt.Sscanf(parts[2], "%d", &attempt)
		}
		cfg.Faults = mcmap.DirectedFault(task, inst, attempt)
	}

	res, err := mcmap.Simulate(sys, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cellTime := mcmap.Time(*cell)
	if cellTime <= 0 {
		cellTime = sys.Hyperperiod / 80
		if cellTime <= 0 {
			cellTime = 1
		}
	}
	fmt.Print(res.Trace.Gantt(cellTime))
	fmt.Println()
	for gi, g := range s.Apps.Graphs {
		fmt.Printf("%-20s worst response %v (deadline %v, %d instances", g.Name,
			res.GraphWCRT[gi], g.EffectiveDeadline(), len(res.GraphResponses[gi]))
		fmt.Println(")")
	}
	fmt.Printf("\ncritical entries: %d, dropped instances: %d, unsafe: %d, deadline misses: %d\n",
		res.CriticalEntries, res.DroppedInstances, res.Unsafe, res.DeadlineMisses)
}
