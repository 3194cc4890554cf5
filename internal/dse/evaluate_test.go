package dse

import (
	"math/rand"
	"testing"

	"mcmap/internal/workpool"
)

// TestEvaluateAllMatchesEvaluate pins the generation fan-out against
// the evaluation body: every member of a generation scored by
// isl.evaluateAll must evaluate exactly as Problem.Evaluate scores it
// alone, on same-system cohorts (makeBatchGeneration) and on random
// repaired genomes. Runs plain and with the no-dropping re-analysis of
// TrackDroppingGain.
func TestEvaluateAllMatchesEvaluate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		track bool
	}{
		{name: "plain"},
		{name: "track", track: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tinyProblem(t)
			pool := workpool.New(2)
			defer pool.Close()
			ev, opts := newRunEvaluator(p, Options{
				TrackDroppingGain: tc.track, Pool: pool,
			}.withDefaults())
			isl := newIsland(0, p, opts, 1, ev)

			rng := rand.New(rand.NewSource(11))
			random := make([]*Genome, 24)
			for i := range random {
				random[i] = p.RandomGenome(rng)
				p.Repair(random[i], rng)
			}
			for _, gen := range []struct {
				name    string
				genomes []*Genome
			}{
				{"cohorts", makeBatchGeneration(p, rng, 4, 8)},
				{"random", random},
			} {
				got, err := isl.evaluateAll(gen.genomes)
				if err != nil {
					t.Fatal(err)
				}
				for i, g := range gen.genomes {
					want, err := p.Evaluate(g, tc.track)
					if err != nil {
						t.Fatal(err)
					}
					if got[i].Genome != g {
						t.Fatalf("%s member %d: result carries another genome", gen.name, i)
					}
					if gs, ws := indSignature(got[i]), indSignature(want); gs != ws {
						t.Errorf("%s member %d: evaluateAll diverged from Evaluate:\n got %s\nwant %s",
							gen.name, i, gs, ws)
					}
				}
			}
		})
	}
}
