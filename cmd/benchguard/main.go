// Command benchguard compares two benchmark result files and fails when
// a guarded benchmark regressed beyond a threshold. It replaces an
// external benchstat dependency for the CI regression gate: both inputs
// are the machine-readable `go test -json` streams the Makefile's bench
// target writes (BENCH_core.json), so the committed baseline doubles as
// the guard's reference.
//
// Usage:
//
//	benchguard -baseline BENCH_core.json -current new.json \
//	    -threshold 15 -require 'BenchmarkAlgorithm1Scaling|BenchmarkHolisticBackend'
//
// For every benchmark matching -require that appears in the baseline,
// benchguard takes the minimum ns/op over the file's repetitions (the
// min is the least noise-contaminated estimate on shared runners),
// requires the benchmark to be present in -current, and fails when
//
//	current_min > baseline_min * (1 + threshold/100)
//
// Benchmarks outside -require are reported for information only.
//
// Beyond the baseline comparison, -ratio asserts scaling relations
// WITHIN the current run:
//
//	benchguard -current new.json \
//	    -ratio 'BenchmarkIslandDSE/islands=4<=1.30*BenchmarkIslandDSE/islands=1'
//
// fails when the first benchmark's minimum ns/op exceeds the factor
// times the second's. Both sides come from the same run on the same
// machine, so absolute speed cancels out — the gate catches scaling
// regressions (parallel variants slower than sequential ones) that an
// absolute threshold on a differently-sized runner never could.
// Several assertions are comma-separated.
//
// The second -ratio form bounds a custom metric a benchmark reports:
//
//	-ratio 'BenchmarkDaemonWarmVsCold:warm_over_cold<=0.20'
//
// fails when the named metric's minimum over the run's repetitions
// exceeds the bound. This is for benchmarks that compute a scaling
// ratio themselves by interleaving both variants in one timing window
// (immune to machine-speed drift between separately-timed pairs).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's minimum ns/op over all repetitions, plus
// the minimum of every custom metric it reported.
type result struct {
	name    string
	nsOp    float64
	metrics map[string]float64
}

func main() {
	baseline := flag.String("baseline", "BENCH_core.json", "committed `go test -json` baseline stream")
	current := flag.String("current", "", "freshly measured `go test -json` stream to compare")
	threshold := flag.Float64("threshold", 15, "maximum allowed ns/op regression in percent")
	require := flag.String("require", "", "regexp of benchmarks that must be present and within threshold")
	ratio := flag.String("ratio", "", "comma-separated scaling assertions 'NameA<=FACTOR*NameB' evaluated within the current run")
	flag.Parse()
	if *current == "" || (*require == "" && *ratio == "") {
		fmt.Fprintln(os.Stderr, "benchguard: -current and at least one of -require / -ratio are mandatory")
		flag.Usage()
		os.Exit(2)
	}
	ratios, err := parseRatios(*ratio)
	if err != nil {
		fatal(err)
	}

	cur, err := parseFile(*current)
	if err != nil {
		fatal(err)
	}

	failed := false
	if *require != "" {
		req, err := regexp.Compile(*require)
		if err != nil {
			fatal(fmt.Errorf("bad -require: %w", err))
		}
		base, err := parseFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var names []string
		for name := range base {
			if req.MatchString(name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if len(names) == 0 {
			fatal(fmt.Errorf("no baseline benchmark matches -require %q", *require))
		}
		for _, name := range names {
			b := base[name]
			c, ok := cur[name]
			if !ok {
				fmt.Printf("FAIL %s: present in baseline, missing from current run\n", name)
				failed = true
				continue
			}
			delta := 100 * (c.nsOp - b.nsOp) / b.nsOp
			verdict := "ok  "
			if delta > *threshold {
				verdict = "FAIL"
				failed = true
			}
			fmt.Printf("%s %s: %.0f ns/op -> %.0f ns/op (%+.1f%%, limit +%.0f%%)\n",
				verdict, name, b.nsOp, c.nsOp, delta, *threshold)
		}
	}

	for _, rc := range ratios {
		if rc.metric != "" {
			num, ok := cur[rc.num]
			if !ok {
				fmt.Printf("FAIL ratio %s:%s <= %.2f: %s missing from current run\n",
					rc.num, rc.metric, rc.limit, rc.num)
				failed = true
				continue
			}
			v, ok := num.metrics[rc.metric]
			if !ok {
				fmt.Printf("FAIL ratio %s:%s <= %.2f: metric %q not reported\n",
					rc.num, rc.metric, rc.limit, rc.metric)
				failed = true
				continue
			}
			verdict := "ok  "
			if v > rc.limit {
				verdict = "FAIL"
				failed = true
			}
			fmt.Printf("%s ratio %s:%s = %.2f (limit %.2f)\n",
				verdict, rc.num, rc.metric, v, rc.limit)
			continue
		}
		num, okN := cur[rc.num]
		den, okD := cur[rc.den]
		if !okN || !okD {
			missing := rc.num
			if okN {
				missing = rc.den
			}
			fmt.Printf("FAIL ratio %s <= %.2f*%s: %s missing from current run\n",
				rc.num, rc.limit, rc.den, missing)
			failed = true
			continue
		}
		r := num.nsOp / den.nsOp
		verdict := "ok  "
		if r > rc.limit {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("%s ratio %s / %s = %.2f (limit %.2f)\n",
			verdict, rc.num, rc.den, r, rc.limit)
	}

	if failed {
		fmt.Println("benchguard: regression beyond threshold")
		os.Exit(1)
	}
	fmt.Println("benchguard: all guarded benchmarks within threshold")
}

// ratioCheck is one scaling assertion. Pair form (metric == ""): min
// ns/op of num must not exceed limit times min ns/op of den, both from
// the same run. Metric form (den == ""): benchmark num's reported
// metric must not exceed limit.
type ratioCheck struct {
	num, den string
	metric   string
	limit    float64
}

// parseRatios parses the comma-separated assertion list; each entry is
// either 'A<=1.30*B' (ns/op pair) or 'A:metric<=1.10' (metric bound).
func parseRatios(s string) ([]ratioCheck, error) {
	var out []ratioCheck
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sides := strings.SplitN(part, "<=", 2)
		if len(sides) != 2 {
			return nil, fmt.Errorf("bad -ratio %q: want 'NameA<=FACTOR*NameB' or 'NameA:metric<=BOUND'", part)
		}
		if !strings.Contains(sides[1], "*") {
			nameAndMetric := strings.SplitN(sides[0], ":", 2)
			if len(nameAndMetric) != 2 {
				return nil, fmt.Errorf("bad -ratio %q: want 'NameA<=FACTOR*NameB' or 'NameA:metric<=BOUND'", part)
			}
			limit, err := strconv.ParseFloat(strings.TrimSpace(sides[1]), 64)
			if err != nil || limit <= 0 {
				return nil, fmt.Errorf("bad -ratio %q: bound %q is not a positive number", part, sides[1])
			}
			out = append(out, ratioCheck{
				num:    strings.TrimSpace(nameAndMetric[0]),
				metric: strings.TrimSpace(nameAndMetric[1]),
				limit:  limit,
			})
			continue
		}
		factorAndDen := strings.SplitN(sides[1], "*", 2)
		limit, err := strconv.ParseFloat(strings.TrimSpace(factorAndDen[0]), 64)
		if err != nil || limit <= 0 {
			return nil, fmt.Errorf("bad -ratio %q: factor %q is not a positive number", part, factorAndDen[0])
		}
		out = append(out, ratioCheck{
			num:   strings.TrimSpace(sides[0]),
			den:   strings.TrimSpace(factorAndDen[1]),
			limit: limit,
		})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}

// event is the subset of the test2json stream benchguard consumes.
type event struct {
	Action string
	Output string
}

// benchLine extracts "BenchmarkX-8   	  1000	  12345 ns/op ..." lines.
// The -N GOMAXPROCS suffix is stripped so baselines taken on machines
// with different core counts still compare.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// metricPair extracts every "<value> <unit>" measurement on a benchmark
// line — the standard ns/op, B/op, allocs/op triple plus any custom
// b.ReportMetric units (warm_over_cold, ...).
var metricPair = regexp.MustCompile(`([0-9.]+(?:e[+-]?[0-9]+)?) ([A-Za-z_][A-Za-z0-9_/]*)`)

// parseFile reads a `go test -json` stream and returns the per-benchmark
// minimum ns/op.
//
// `go test -json` flushes the benchmark name ("BenchmarkX-8 \t") in one
// Output event and the measurements ("  1000\t  123 ns/op\n") in the
// next, so Output payloads are reassembled into complete lines before
// matching instead of being inspected event by event.
func parseFile(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]result{}
	var partial strings.Builder
	record := func(chunk string) {
		partial.WriteString(chunk)
		if !strings.Contains(chunk, "\n") {
			return
		}
		lines := strings.Split(partial.String(), "\n")
		partial.Reset()
		partial.WriteString(lines[len(lines)-1]) // unfinished tail, if any
		for _, line := range lines[:len(lines)-1] {
			line = strings.TrimSpace(line)
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			r, ok := out[m[1]]
			if !ok {
				r = result{name: m[1], nsOp: ns, metrics: map[string]float64{}}
			} else if ns < r.nsOp {
				r.nsOp = ns
			}
			for _, mp := range metricPair.FindAllStringSubmatch(line, -1) {
				v, err := strconv.ParseFloat(mp[1], 64)
				if err != nil {
					continue
				}
				if prev, seen := r.metrics[mp[2]]; !seen || v < prev {
					r.metrics[mp[2]] = v
				}
			}
			out[m[1]] = r
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			// Tolerate plain `go test -bench` output interleaved in the
			// file: each raw line is already complete.
			record(line + "\n")
			continue
		}
		if ev.Action != "output" {
			continue
		}
		record(ev.Output)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	record("\n") // flush a final unterminated line
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return out, nil
}
