package dse

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mcmap/internal/benchmarks"
)

// repairedGenomes draws n seeded random genomes of p and repairs them.
func repairedGenomes(p *Problem, seed int64, n int) []*Genome {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Genome, n)
	for i := range out {
		out[i] = p.RandomGenome(rng)
		p.Repair(out[i], rng)
	}
	return out
}

// TestTrackDroppingGainKeepsScores: the no-dropping re-analysis of
// TrackDroppingGain reuses the evaluation's Algorithm 1 workspace, so
// it overwrites the dropping analysis's Report; it must change none of
// what the candidate is scored by. Evaluate(g, true) must equal
// Evaluate(g, false) in Objectives, Power, Feasible and GraphWCRT on 64
// repaired genomes of every bundled benchmark.
func TestTrackDroppingGainKeepsScores(t *testing.T) {
	for _, name := range benchmarks.Names() {
		p := benchProblem(t, name)
		for i, g := range repairedGenomes(p, 21, 64) {
			plain, err := p.Evaluate(g, false)
			if err != nil {
				t.Fatal(err)
			}
			tracked, err := p.Evaluate(g, true)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Objectives != tracked.Objectives || plain.Power != tracked.Power ||
				plain.Feasible != tracked.Feasible || !slices.Equal(plain.GraphWCRT, tracked.GraphWCRT) {
				t.Fatalf("%s genome %d: tracking the dropping gain changed the score:\n plain   %s\n tracked %s",
					name, i, indSignature(plain), indSignature(tracked))
			}
		}
	}
}

// TestEvaluateWorkspaceReuse runs one evaluation workspace over the
// genomes of two problems of different sizes, interleaved, with and
// without TrackDroppingGain, and requires every Individual to equal, in
// every field, the one a fresh workspace evaluates.
func TestEvaluateWorkspaceReuse(t *testing.T) {
	large, cruise := benchProblem(t, "dt-large"), benchProblem(t, "cruise")
	a, b := repairedGenomes(large, 5, 24), repairedGenomes(cruise, 6, 24)
	ws := newEvalWorkspace()
	for i := range a {
		for _, c := range []struct {
			p *Problem
			g *Genome
		}{{large, a[i]}, {cruise, b[i]}} {
			track := i%3 == 0
			got, err := c.p.evaluateIn(ws, c.g, track, c.p.Analysis)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.p.evaluateIn(newEvalWorkspace(), c.g, track, c.p.Analysis)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("genome %d: reused workspace gives\n %s\nfresh one\n %s", i, indSignature(got), indSignature(want))
			}
		}
	}
}
