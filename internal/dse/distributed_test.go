package dse

import (
	"fmt"
	"os"
	"reflect"
	"testing"
)

// TestMain doubles as the distributed-island worker entry point: the
// parent side of a distributed run re-execs the current binary — under
// `go test`, that is this test binary — with IslandWorkerEnv set, and
// the child must become a protocol server on stdin/stdout instead of
// running the test suite.
func TestMain(m *testing.M) {
	if os.Getenv(IslandWorkerEnv) == "1" {
		if err := RunIslandWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "island worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// requireSameRun fails unless two runs agree on the whole Result: the
// archives (archiveSignature), every GenStat of the history and every
// Stats field, per-island summaries included. ignoreTakeovers exempts
// Stats.IslandTakeovers, which only a run with a killed worker raises.
func requireSameRun(t *testing.T, mode string, want, got *Result, ignoreTakeovers bool) {
	t.Helper()
	if ws, gs := archiveSignature(want), archiveSignature(got); gs != ws {
		t.Errorf("%s archives diverge from in-process:\n in-proc %s\n %7s %s", mode, ws, mode, gs)
	}
	if !reflect.DeepEqual(got.History, want.History) {
		t.Errorf("%s history diverges from in-process:\n in-proc %+v\n %7s %+v", mode, want.History, mode, got.History)
	}
	gotStats := got.Stats
	if ignoreTakeovers {
		gotStats.IslandTakeovers = want.Stats.IslandTakeovers
	}
	if !reflect.DeepEqual(gotStats, want.Stats) {
		t.Errorf("%s stats diverge from in-process:\n in-proc %+v\n %7s %+v", mode, want.Stats, mode, gotStats)
	}
}

// TestDistributedMatchesInProcess is the mode-equivalence guarantee:
// running each island in its own child process must reproduce the
// in-process Result exactly — same per-generation history, same
// migration totals, same counters, same final best and front. Islands
// share no evaluation state in either mode, so nothing is exempt.
func TestDistributedMatchesInProcess(t *testing.T) {
	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 6, Seed: 11,
		Islands: 3, MigrationInterval: 2, Workers: 3}

	inProc, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Distributed = true
	dist, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}

	requireSameRun(t, "distrib", inProc, dist, false)
}

// TestDistributedDeterminism: two distributed runs of the same seed are
// identical, including the per-island counters — each worker process
// runs a sequential trajectory, so nothing is timing-dependent.
func TestDistributedDeterminism(t *testing.T) {
	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 4, Seed: 7,
		Islands: 2, MigrationInterval: 2, Workers: 2, Distributed: true}
	a, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := archiveSignature(a), archiveSignature(b); sa != sb {
		t.Errorf("distributed run is not seed-deterministic:\n run1 %s\n run2 %s", sa, sb)
	}
	for i := range a.Stats.IslandStats {
		if a.Stats.IslandStats[i] != b.Stats.IslandStats[i] {
			t.Errorf("island %d stats differ across identical runs:\n run1 %+v\n run2 %+v",
				i, a.Stats.IslandStats[i], b.Stats.IslandStats[i])
		}
	}
}

// TestDistributedRejectsCustomSelector: selectors cross the process
// boundary by name, so only the built-ins work distributed and anything
// else must fail fast instead of silently running a different GA.
func TestDistributedRejectsCustomSelector(t *testing.T) {
	p := tinyProblem(t)
	_, err := Optimize(p, Options{PopSize: 8, Generations: 2, Seed: 1,
		Islands: 2, Distributed: true, Selector: customSelector{}})
	if err == nil {
		t.Fatal("distributed run with a custom selector succeeded, want error")
	}
}

// customSelector is a non-built-in Selector for the rejection test.
type customSelector struct{ Elitist }

func (customSelector) Name() string { return "custom" }

// TestTrajectoryWorkerIndependent pins the scaling contract of the
// whole stack: the optimization trajectory (archives, migration flow,
// final front) is a function of the seed alone, never of the worker
// budget that happened to execute it — for the single-island engine and
// the island model alike. Runs under -race in CI, so it doubles as the
// data-race probe for the persistent-pool fan-out path.
func TestTrajectoryWorkerIndependent(t *testing.T) {
	for _, islands := range []int{1, 3} {
		p := tinyProblem(t)
		var want string
		for _, workers := range []int{1, 2, 4, 8} {
			opts := Options{PopSize: 10, Generations: 4, Seed: 5,
				Islands: islands, MigrationInterval: 2, Workers: workers}
			res, err := Optimize(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := archiveSignature(res)
			if workers == 1 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("islands=%d: workers=%d trajectory diverges from workers=1:\n w1 %s\n w%d %s",
					islands, workers, want, workers, got)
			}
		}
	}
}
