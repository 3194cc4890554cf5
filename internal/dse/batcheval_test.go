package dse

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mcmap/internal/model"
	"mcmap/internal/workpool"
)

// batchSignature renders everything batching promises to preserve: the
// per-generation GA trajectory, the aggregate evaluation counts, the
// best design and the full front. The scenario counters are
// deliberately absent — shared analyses run the backend fewer times, so
// those legitimately shrink.
func batchSignature(res *Result) string {
	var b strings.Builder
	for _, h := range res.History {
		fmt.Fprintf(&b, "g%d.%d:%x:%d:%d:m%d;", h.Gen, h.Island, h.BestPower,
			h.Feasible, h.ArchiveSize, h.MigrantsIn)
	}
	fmt.Fprintf(&b, "|ev%d:fe%d", res.Stats.Evaluated, res.Stats.Feasible)
	if res.Best != nil {
		fmt.Fprintf(&b, "|best:%x:%x", res.Best.Power, res.Best.Service)
	}
	for _, ind := range res.Front {
		fmt.Fprintf(&b, "|f:%x:%x:%v", ind.Objectives[0], ind.Objectives[1], ind.Feasible)
	}
	return b.String()
}

// TestBatchedMatchesPerCandidate is the generation-batching safety
// guarantee: every member of a batched generation (isl.evaluateAll)
// must evaluate exactly as it does alone (Problem.Evaluate), on
// same-system cohorts where batching actually shares work (hits > 0)
// and on random repaired genomes. Runs plain, with the no-dropping
// re-analysis that TrackDroppingGain shares per drop set, and with
// dominance pruning. A full batched run must also report consistent
// batch counters.
func TestBatchedMatchesPerCandidate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		track, prune bool
	}{
		{name: "plain"},
		{name: "track", track: true},
		{name: "prune", prune: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tinyProblem(t)
			p.Analysis.PruneDominated = tc.prune
			pool := workpool.New(2)
			defer pool.Close()
			ev, opts := newRunEvaluator(p, Options{
				TrackDroppingGain: tc.track, PruneDominated: tc.prune, Pool: pool,
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
				shares  bool
			}{
				{"cohorts", makeBatchGeneration(p, rng, 4, 8), true},
				{"random", random, false},
			} {
				got, bc, err := isl.evaluateAll(gen.genomes)
				if err != nil {
					t.Fatal(err)
				}
				if gen.shares && bc.hits == 0 {
					t.Fatalf("%s: batched generation shared no work (groups=%d)", gen.name, bc.groups)
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
						t.Errorf("%s member %d: batched evaluation diverged from per-candidate:\n got %s\nwant %s",
							gen.name, i, gs, ws)
					}
				}
			}

			res, err := Optimize(p, Options{PopSize: 16, Generations: 8, Seed: 3,
				TrackDroppingGain: tc.track, PruneDominated: tc.prune})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.BatchGroups == 0 || res.Stats.BatchHits == 0 {
				t.Fatalf("batched run shared no work (groups=%d hits=%d) — a converging GA should produce same-system cohorts",
					res.Stats.BatchGroups, res.Stats.BatchHits)
			}
			// Per-generation batch counters must be consistent: hits only
			// happen inside groups, and the per-gen entries sum to the run
			// totals.
			groups, hits := 0, 0
			for _, h := range res.History {
				if h.BatchHits > 0 && h.BatchGroups == 0 {
					t.Fatalf("generation %d reports batch hits without groups: %+v", h.Gen, h)
				}
				groups += h.BatchGroups
				hits += h.BatchHits
			}
			if groups != res.Stats.BatchGroups || hits != res.Stats.BatchHits {
				t.Fatalf("per-gen batch counters (groups=%d hits=%d) do not sum to stats (%d, %d)",
					groups, hits, res.Stats.BatchGroups, res.Stats.BatchHits)
			}
		})
	}
}

// TestBatchedDeterministicAcrossWorkers pins that batch grouping and its
// counters are fan-out-width independent: groups are formed sequentially
// before the fan-out and evaluated atomically, so worker count can move
// nothing, counters included.
func TestBatchedDeterministicAcrossWorkers(t *testing.T) {
	p := tinyProblem(t)
	base := Options{PopSize: 16, Generations: 6, Seed: 9}
	w1 := base
	w1.Workers = 1
	a, err := Optimize(p, w1)
	if err != nil {
		t.Fatal(err)
	}
	w8 := base
	w8.Workers = 8
	b, err := Optimize(p, w8)
	if err != nil {
		t.Fatal(err)
	}
	if as, bs := batchSignature(a), batchSignature(b); as != bs {
		t.Errorf("worker width changed the batched trajectory:\n w1 %s\n w8 %s", as, bs)
	}
	if a.Stats.BatchGroups != b.Stats.BatchGroups || a.Stats.BatchHits != b.Stats.BatchHits {
		t.Errorf("worker width changed batch counters: w1 groups=%d hits=%d, w8 groups=%d hits=%d",
			a.Stats.BatchGroups, a.Stats.BatchHits, b.Stats.BatchGroups, b.Stats.BatchHits)
	}
}

// TestSysKeyIgnoresDontCareLoci pins the group key's core property: loci
// that Decode never reads (Keep, Alloc, replica-map tails, K under
// replication, the standby map under re-execution) must not split
// groups, while every phenotype-bearing locus must.
func TestSysKeyIgnoresDontCareLoci(t *testing.T) {
	p := tinyProblem(t)
	g := p.RandomGenome(rand.New(rand.NewSource(42)))
	key := p.sysKey(g)

	// otherProc returns an architecture processor distinct from cur.
	otherProc := func(cur model.ProcID) model.ProcID {
		for _, pr := range p.Arch.Procs {
			if pr.ID != cur {
				return pr.ID
			}
		}
		t.Fatal("architecture has a single processor")
		return cur
	}

	same := func(name string, mut func(*Genome)) {
		t.Helper()
		c := g.Clone()
		mut(c)
		if got := p.sysKey(c); got != key {
			t.Errorf("%s changed sysKey:\n got %s\nwant %s", name, got, key)
		}
	}
	diff := func(name string, mut func(*Genome)) {
		t.Helper()
		c := g.Clone()
		mut(c)
		if got := p.sysKey(c); got == key {
			t.Errorf("%s should have changed sysKey but did not (%s)", name, key)
		}
	}

	same("flipping Keep", func(c *Genome) {
		for i := range c.Keep {
			c.Keep[i] = !c.Keep[i]
		}
	})
	same("flipping Alloc", func(c *Genome) {
		for i := range c.Alloc {
			c.Alloc[i] = !c.Alloc[i]
		}
	})
	same("scrambling don't-care parameters", func(c *Genome) {
		for i := range c.Genes {
			ge := &c.Genes[i]
			switch {
			case ge.Replicas > 0: // replication: K and Map are dead
				ge.K = 99
				ge.Map = 99
				for r := ge.Replicas; r < len(ge.ReplicaMap); r++ {
					ge.ReplicaMap[r] = 99 // tail beyond Replicas is dead
				}
			case ge.K > 0: // re-execution: replica fields are dead
				for r := range ge.ReplicaMap {
					ge.ReplicaMap[r] = 99
				}
				ge.VoterMap = 99
			default: // unhardened: only Map lives
				ge.K = 0
				for r := range ge.ReplicaMap {
					ge.ReplicaMap[r] = 99
				}
				ge.VoterMap = 99
			}
		}
	})
	diff("moving a mapping", func(c *Genome) {
		ge := &c.Genes[0]
		if ge.Replicas > 0 {
			ge.ReplicaMap[0] = otherProc(ge.ReplicaMap[0])
		} else {
			ge.Map = otherProc(ge.Map)
		}
	})
}
