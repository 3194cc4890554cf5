package dse

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mcmap/internal/sched"
	"mcmap/internal/workpool"
)

// trajectorySignature flattens a Result into a comparable string: every
// generation's archive summary (floats in exact hex), the evaluation
// totals, and the final best/front objectives.
func trajectorySignature(res *Result) string {
	var b strings.Builder
	for _, h := range res.History {
		fmt.Fprintf(&b, "g%d:%x:%d:%d;", h.Gen, h.BestPower, h.Feasible, h.ArchiveSize)
	}
	fmt.Fprintf(&b, "|ev%d:fe%d", res.Stats.Evaluated, res.Stats.Feasible)
	if res.Best != nil {
		fmt.Fprintf(&b, "|best:%x", res.Best.Power)
	}
	for _, ind := range res.Front {
		fmt.Fprintf(&b, "|f:%x:%x", ind.Objectives[0], ind.Objectives[1])
	}
	return b.String()
}

// plainGolden is the "plain" case of TestIslandOneMatchesGolden.
const plainGolden = "g0:0x1.b1ae7fbef125bp+00:6:16;" +
	"g1:0x1.91f08f2a8a651p+00:15:16;" +
	"g2:0x1.5ebcd5c309b93p+00:16:16;" +
	"g3:0x1.11f008f63cec6p+00:16:16;" +
	"g4:0x1.11f008f63cec6p+00:16:16;" +
	"g5:0x1.11f008f63cec6p+00:16:16;" +
	"g6:0x1.11f008f63cec6p+00:16:16;" +
	"g7:0x1.11f008f63cec6p+00:16:16;" +
	"g8:0x1.11f008f63cec6p+00:16:16;" +
	"|ev144:fe107|best:0x1.11f008f63cec6p+00|f:0x1.11f008f63cec6p+00:-0x1.8p+02"

// TestIslandOneMatchesGolden pins the Islands=1 trajectory byte-for-byte
// to the pre-island engine: the two golden signatures below were
// captured from the single-trajectory implementation (commit 81ea41b)
// on the same problem and options, before island.go existed. Any change
// to seeding, RNG consumption order, selection or snapshot arithmetic
// shows up here.
func TestIslandOneMatchesGolden(t *testing.T) {
	p := tinyProblem(t)
	cases := []struct {
		name   string
		opts   Options
		golden string
	}{
		{
			name:   "plain",
			opts:   Options{PopSize: 16, Generations: 8, Seed: 3},
			golden: plainGolden,
		},
		{
			name: "track",
			opts: Options{PopSize: 12, Generations: 6, Seed: 7,
				TrackDroppingGain: true},
			golden: "g0:0x1.8f62d8050622bp+00:8:12;" +
				"g1:0x1.88b94363e2756p+00:12:12;" +
				"g2:0x1.88b94363e2756p+00:12:12;" +
				"g3:0x1.87b2985265e21p+00:12:12;" +
				"g4:0x1.3bec769715a8ap+00:12:12;" +
				"g5:0x1.3bec769715a8ap+00:12:12;" +
				"g6:0x1.3bec769715a8ap+00:12:12;" +
				"|ev84:fe68|best:0x1.3bec769715a8ap+00" +
				"|f:0x1.3bec769715a8ap+00:-0x1p+02|f:0x1.87b2985265e21p+00:-0x1.8p+02",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Workers=1 runs the schedule the golden capture ran on;
			// multi-worker runs are covered by the determinism tests.
			opts := tc.opts
			opts.Workers = 1
			res, err := Optimize(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := trajectorySignature(res); got != tc.golden {
				t.Errorf("islands=1 trajectory diverged from the pre-island engine:\n got %s\nwant %s", got, tc.golden)
			}
			for _, h := range res.History {
				if h.Island != 0 || h.MigrantsIn != 0 {
					t.Fatalf("single-island history entry carries island data: %+v", h)
				}
			}
			if res.Stats.Migrations != 0 || res.Stats.IslandStats != nil {
				t.Fatalf("single-island run has migration stats: %+v", res.Stats)
			}
		})
	}
}

// TestGoldenTrajectoryEngineIndependent re-runs the islands=1 "plain"
// golden with the analysis backend swapped for sched.Reference: the GA's
// decisions may not depend on which engine computed the WCRTs, so the
// unoptimized reference must reproduce the production trajectory byte
// for byte.
func TestGoldenTrajectoryEngineIndependent(t *testing.T) {
	p := tinyProblem(t)
	p.Analysis.Analyzer = sched.Reference{}
	res, err := Optimize(p, Options{PopSize: 16, Generations: 8, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := trajectorySignature(res); got != plainGolden {
		t.Errorf("reference-backed trajectory diverged from the golden:\n got %s\nwant %s", got, plainGolden)
	}
}

// archiveSignature flattens the trajectory-determined parts of a Result:
// BestPower/Feasible/MigrantsIn per generation, the evaluation and
// migration totals, the final best and the front.
func archiveSignature(res *Result) string {
	var b strings.Builder
	for _, h := range res.History {
		fmt.Fprintf(&b, "g%d.%d:%x:%d:%d:m%d;", h.Gen, h.Island, h.BestPower, h.Feasible, h.ArchiveSize, h.MigrantsIn)
	}
	fmt.Fprintf(&b, "|ev%d:fe%d:mig%d", res.Stats.Evaluated, res.Stats.Feasible, res.Stats.Migrations)
	if res.Best != nil {
		fmt.Fprintf(&b, "|best:%x", res.Best.Power)
	}
	for _, ind := range res.Front {
		fmt.Fprintf(&b, "|f:%x:%x", ind.Objectives[0], ind.Objectives[1])
	}
	return b.String()
}

// TestMultiIslandDeterminism: a multi-island run is reproducible from
// the one seed — island RNG streams are derived deterministically and
// migration happens at barriers in island order.
func TestMultiIslandDeterminism(t *testing.T) {
	p := tinyProblem(t)
	opts := Options{PopSize: 10, Generations: 6, Seed: 11,
		Islands: 3, MigrationInterval: 2, Workers: 4}
	a, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := archiveSignature(a), archiveSignature(b); sa != sb {
		t.Errorf("multi-island run is not deterministic:\n run1 %s\n run2 %s", sa, sb)
	}
}

// TestIslandCounterDeterminism pins that every island's counters — not
// just its archive — are a deterministic function of the seed: islands
// share no mutable evaluation state, and evaluateAll folds every counter
// sequentially in batch order, so this holds at every worker budget,
// which is what the Workers=4 case checks under -race.
func TestIslandCounterDeterminism(t *testing.T) {
	p := tinyProblem(t)
	for _, workers := range []int{1, 4} {
		opts := Options{PopSize: 10, Generations: 6, Seed: 11,
			Islands: 3, MigrationInterval: 2, Workers: workers}
		a, err := Optimize(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Optimize(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Stats.IslandStats, b.Stats.IslandStats) {
			t.Errorf("workers=%d: per-island stats differ across identical runs:\n run1 %+v\n run2 %+v",
				workers, a.Stats.IslandStats, b.Stats.IslandStats)
		}
		for i := range a.History {
			ha, hb := a.History[i], b.History[i]
			if ha != hb {
				t.Errorf("workers=%d: history[%d] differs across identical runs:\n run1 %+v\n run2 %+v",
					workers, i, hb, ha)
			}
		}
	}
}

// TestMultiIslandMergeInvariants checks the structural properties of a
// multi-island result: per-island histories and stats are complete and
// sum to the aggregates, migration happened on schedule, and the merged
// front is feasible, non-dominated and deduped.
func TestMultiIslandMergeInvariants(t *testing.T) {
	p := tinyProblem(t)
	const islands, gens, interval = 3, 6, 2
	res, err := Optimize(p, Options{PopSize: 10, Generations: gens, Seed: 5,
		Islands: islands, MigrationInterval: interval, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != islands*(gens+1) {
		t.Fatalf("history has %d entries, want %d", len(res.History), islands*(gens+1))
	}
	if !sort.SliceIsSorted(res.History, func(i, j int) bool {
		if res.History[i].Gen != res.History[j].Gen {
			return res.History[i].Gen < res.History[j].Gen
		}
		return res.History[i].Island < res.History[j].Island
	}) {
		t.Error("history is not sorted by (generation, island)")
	}
	if len(res.Stats.IslandStats) != islands {
		t.Fatalf("got %d IslandStats, want %d", len(res.Stats.IslandStats), islands)
	}
	sumEval, sumIn, sumOut := 0, 0, 0
	for i, st := range res.Stats.IslandStats {
		if st.Island != i {
			t.Errorf("IslandStats[%d].Island = %d", i, st.Island)
		}
		sumEval += st.Evaluated
		sumIn += st.MigrantsIn
		sumOut += st.MigrantsOut
	}
	if sumEval != res.Stats.Evaluated {
		t.Errorf("island Evaluated sums to %d, Stats.Evaluated = %d", sumEval, res.Stats.Evaluated)
	}
	// 6 generations at interval 2 = migration after gens 2 and 4; each
	// island receives elites from one neighbour each round.
	if res.Stats.Migrations == 0 {
		t.Error("no migrations recorded")
	}
	if sumIn != res.Stats.Migrations || sumOut != res.Stats.Migrations {
		t.Errorf("migrants in/out (%d/%d) don't match Stats.Migrations (%d)", sumIn, sumOut, res.Stats.Migrations)
	}
	histIn := 0
	for _, h := range res.History {
		if h.MigrantsIn > 0 && h.Gen != 2 && h.Gen != 4 {
			t.Errorf("migration recorded at generation %d, want only 2 and 4", h.Gen)
		}
		histIn += h.MigrantsIn
	}
	if histIn != res.Stats.Migrations {
		t.Errorf("history MigrantsIn sums to %d, Stats.Migrations = %d", histIn, res.Stats.Migrations)
	}
	for _, a := range res.Front {
		if !a.Feasible {
			t.Fatalf("infeasible individual on merged front: %+v", a.Objectives)
		}
		for _, b := range res.Front {
			if a != b && b.Objectives.Dominates(a.Objectives) {
				t.Fatalf("merged front contains dominated point %v (by %v)", a.Objectives, b.Objectives)
			}
		}
	}
	if res.Best == nil {
		t.Fatal("no feasible design found on the merged archive")
	}
}

// TestIslandSeeds pins the SplitMix64 derivation: island 0 keeps the run
// seed verbatim (the Islands=1 identity guarantee), the stream is
// deterministic, and the derived seeds are pairwise distinct.
func TestIslandSeeds(t *testing.T) {
	a := islandSeeds(42, 8)
	b := islandSeeds(42, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("islandSeeds is not deterministic")
	}
	if a[0] != 42 {
		t.Fatalf("island 0 seed = %d, want the run seed verbatim", a[0])
	}
	seen := map[int64]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("duplicate derived seed %d", s)
		}
		seen[s] = true
	}
	if c := islandSeeds(43, 8); c[1] == a[1] {
		t.Error("different run seeds derive the same island-1 seed")
	}
}

// truncateRecompute is the historical SPEA2 truncation (pre-island
// engine): rebuild and re-sort every distance vector after each removal.
// It is the reference the incremental implementation must match.
func truncateRecompute(set []*Individual, size int) []*Individual {
	set = append([]*Individual(nil), set...)
	for len(set) > size {
		n := len(set)
		dist := make([][]float64, n)
		for i := 0; i < n; i++ {
			dist[i] = make([]float64, 0, n-1)
			for j := 0; j < n; j++ {
				if i != j {
					dist[i] = append(dist[i], set[i].Objectives.distance(set[j].Objectives))
				}
			}
			sort.Float64s(dist[i])
		}
		victim := 0
		for i := 1; i < n; i++ {
			if lexLess(dist[i], dist[victim]) {
				victim = i
			}
		}
		set = append(set[:victim], set[victim+1:]...)
	}
	return set
}

// randomObjectivePopulation builds a population with deliberately
// duplicated objective vectors (zero pairwise distances and lexLess
// ties), the adversarial input for truncation tie-breaking.
func randomObjectivePopulation(rng *rand.Rand, n int) []*Individual {
	out := make([]*Individual, n)
	for i := range out {
		if i >= 3 && rng.Float64() < 0.3 {
			// Duplicate an earlier objective point.
			out[i] = mkInd(out[rng.Intn(i)].Objectives[0], 0)
			out[i].Objectives = out[rng.Intn(i)].Objectives
		} else {
			// A coarse grid keeps collisions and equal distances common.
			out[i] = mkInd(float64(rng.Intn(8)), 0)
			out[i].Objectives = Objectives{float64(rng.Intn(8)), -float64(rng.Intn(4))}
		}
	}
	return out
}

// TestTruncateMatchesRecompute: the incremental sorted-neighbour-list
// truncation must select exactly the individuals the historical
// recompute-per-removal procedure selects — including all tie-breaks
// from duplicated objective vectors — on both the serial and the
// parallel (pool-wired) kernel path, across repeated runs.
func TestTruncateMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	serial := SPEA2{}
	parallel := SPEA2{pool: workpool.New(4)}
	for trial := 0; trial < 25; trial++ {
		n := 65 + rng.Intn(40) // above spea2ParallelMin so the pool path engages
		pop := randomObjectivePopulation(rng, n)
		size := 1 + rng.Intn(n-1)
		want := truncateRecompute(pop, size)
		got := serial.truncate(append([]*Individual(nil), pop...), size)
		if !samePointers(want, got) {
			t.Fatalf("trial %d: serial incremental truncate diverged from recompute (n=%d size=%d)", trial, n, size)
		}
		for rep := 0; rep < 3; rep++ {
			gotPar := parallel.truncate(append([]*Individual(nil), pop...), size)
			if !samePointers(want, gotPar) {
				t.Fatalf("trial %d rep %d: parallel truncate diverged from recompute (n=%d size=%d)", trial, rep, n, size)
			}
		}
	}
}

// TestSelectSerialParallelIdentical: full environmental selection
// (fitness kernels + truncation) must return the same archive, with the
// same Fitness values, with and without the pool wired in.
func TestSelectSerialParallelIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := workpool.New(4)
	for trial := 0; trial < 10; trial++ {
		n := 70 + rng.Intn(60)
		pop := randomObjectivePopulation(rng, n)
		size := 8 + rng.Intn(24)

		serialIn := clonePop(pop)
		wantArch := SPEA2{}.Select(serialIn, size)
		for rep := 0; rep < 3; rep++ {
			parIn := clonePop(pop)
			gotArch := SPEA2{pool: pool}.Select(parIn, size)
			if len(wantArch) != len(gotArch) {
				t.Fatalf("trial %d: archive sizes differ: %d vs %d", trial, len(wantArch), len(gotArch))
			}
			for i := range wantArch {
				if wantArch[i].Objectives != gotArch[i].Objectives || wantArch[i].Fitness != gotArch[i].Fitness {
					t.Fatalf("trial %d: archive slot %d differs: %v/%v vs %v/%v", trial, i,
						wantArch[i].Objectives, wantArch[i].Fitness, gotArch[i].Objectives, gotArch[i].Fitness)
				}
			}
		}
	}
}

func clonePop(pop []*Individual) []*Individual {
	out := make([]*Individual, len(pop))
	for i, ind := range pop {
		c := *ind
		out[i] = &c
	}
	return out
}

func samePointers(a, b []*Individual) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
