package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"mcmap/internal/dse"
)

// TestMain lets the test binary serve as a distributed island worker:
// dse-islands re-execs the running binary with IslandWorkerEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(dse.IslandWorkerEnv) == "1" {
		if err := dse.RunIslandWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "island worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// tinySize keeps the smoke test fast.
var tinySize = size{
	Name:         "tiny",
	SetupBatches: 3,
	FixedPop:     8, FixedGens: 3,
	IslandPop: 8, IslandGens: 4, IslandInterval: 2,
	Sweep:      poolShape{gaRuns: 1, gaPop: 8, gaGens: 2, offspring: 4, random: 6},
	Daemon:     poolShape{gaRuns: 1, gaPop: 8, gaGens: 2, offspring: 2, random: 4},
	SimDesigns: 2, SimRuns: 3,
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricDef             `json:"end_to_end"`
	PerLayer  []metricDef             `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkJSON pins the printed metric names and units
// to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := fmt.Sprint(names), fmt.Sprint(workloadNames()); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	if got, want := fmt.Sprint(bf.EndToEnd), fmt.Sprint(endToEnd); got != want {
		t.Errorf("BENCHMARK.json end_to_end %s, benchmark prints %s", got, want)
	}
	if got, want := fmt.Sprint(bf.PerLayer), fmt.Sprint(perLayer); got != want {
		t.Errorf("BENCHMARK.json per_layer %s, benchmark prints %s", got, want)
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// requires every metric to be printed and every output check to pass.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				cfg := runConfig{Seed: 3, Duration: 300 * time.Millisecond, Trace: traced,
					Size: tinySize, SpanDir: t.TempDir()}
				res, err := run(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(last.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(last.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := last.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s (%s) missing or mis-united: %+v", d.Name, d.Unit, m)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if traced {
					if _, err := os.Stat(fmt.Sprintf("%s/spans-%s-3.json", cfg.SpanDir, name)); err != nil {
						t.Errorf("traced run wrote no spans: %v", err)
					}
				}
			})
		}
	}
}
