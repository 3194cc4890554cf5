package dse

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/sched"
	"mcmap/internal/workpool"
)

// FuzzTransportFrame pins the two safety properties of the frame layer:
// arbitrary bytes fed to readFrame never panic (a hostile or corrupt
// peer yields an error, not a crash), and writeFrame/readFrame
// round-trip a message exactly — on both sides of the flate
// compression threshold, since the repeated payload crosses it.
func FuzzTransportFrame(f *testing.F) {
	f.Add([]byte("ping"), byte(0), int64(1))
	f.Add([]byte{}, byte(3), int64(0))
	// 64 bytes repeated 256x lands well past compressThreshold (4 KiB).
	f.Add(bytes.Repeat([]byte{0xAB, 0x00, 0x7F, 0xFF}, 16), byte(255), int64(-7))
	f.Fuzz(func(t *testing.T, data []byte, rep byte, seed int64) {
		// Property 1: the reader survives arbitrary input. The bytes are
		// simultaneously a hostile header (declared length, compression
		// bit) and a hostile payload (truncated gob, bogus flate stream).
		if msg, err := readFrame(bytes.NewReader(data)); msg == nil && err == nil {
			t.Fatal("readFrame returned neither a message nor an error")
		}

		// Property 2: a frame round-trips bit-exactly. Repeating the
		// input scales the payload across the compression threshold
		// without giving the fuzzer a multi-megabyte search space.
		payload := bytes.Repeat(data, int(rep)+1)
		if len(payload) > 1<<20 {
			payload = payload[:1<<20]
		}
		msg := &wireMsg{
			Kind:     kindInit,
			From:     int(rep),
			N:        len(data),
			Error:    string(data),
			Init:     &wireInit{SpecJSON: payload, Island: int(rep), Seed: seed},
			OutCount: int(seed % 1000),
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, msg); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame(writeFrame(msg)): %v", err)
		}
		if got.Kind != msg.Kind || got.From != msg.From || got.N != msg.N ||
			got.Error != msg.Error || got.OutCount != msg.OutCount {
			t.Fatalf("frame fields changed in flight: got %+v, want %+v", got, msg)
		}
		if got.Init == nil || got.Init.Island != msg.Init.Island || got.Init.Seed != seed ||
			!bytes.Equal(got.Init.SpecJSON, payload) {
			t.Fatal("wireInit payload changed in flight")
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after one frame: framing desynced", buf.Len())
		}
	})
}

// makeBatchGeneration builds one generation shaped like a converging
// GA's: bases distinct random structures, each surrounded by variants
// that differ only in loci outside the compiled system — Keep bits
// (drop-set choice), Alloc bits (spare processors powered on) and
// don't-care parameters (replica-map tails, K under replication, the
// standby map under re-execution), so the generation holds same-system
// siblings and full phenotype duplicates.
func makeBatchGeneration(p *Problem, rng *rand.Rand, bases, variants int) []*Genome {
	gen := make([]*Genome, 0, bases*variants)
	for len(gen) < bases*variants {
		base := p.RandomGenome(rng)
		p.Repair(base, rng)
		gen = append(gen, base)
		for v := 1; v < variants; v++ {
			c := base.Clone()
			switch v % 4 {
			case 1:
				// Phenotype duplicate: only don't-care loci move.
				scrambleDeadLoci(c, v)
			case 2:
				// New drop set over the same compiled system.
				c.Keep[v%len(c.Keep)] = !c.Keep[v%len(c.Keep)]
			case 3:
				// Same drop set, extra allocated processor.
				c.Alloc[v%len(c.Alloc)] = true
				scrambleDeadLoci(c, v)
			case 0:
				// Phenotype duplicate of the case-2 sibling.
				c.Keep[(v-2)%len(c.Keep)] = !c.Keep[(v-2)%len(c.Keep)]
				scrambleDeadLoci(c, v)
			}
			gen = append(gen, c)
		}
	}
	return gen[:bases*variants]
}

// scrambleDeadLoci rewrites the loci Decode never reads: mutation
// churns these freely without changing the phenotype.
func scrambleDeadLoci(g *Genome, salt int) {
	for i := range g.Genes {
		ge := &g.Genes[i]
		switch {
		case ge.Replicas > 0: // replication: K, Map and the map tail are dead
			ge.K = salt
			for r := ge.Replicas; r < len(ge.ReplicaMap); r++ {
				ge.ReplicaMap[r]++
			}
		case ge.K > 0: // re-execution: replica fields are dead
			for r := range ge.ReplicaMap {
				ge.ReplicaMap[r]++
			}
			ge.VoterMap++
		default: // unhardened: only Map lives
			for r := range ge.ReplicaMap {
				ge.ReplicaMap[r]++
			}
			ge.VoterMap++
		}
	}
}

// indSignature flattens the fields of an evaluated Individual that
// evaluateAll must reproduce from Evaluate, the scenario tally included.
func indSignature(ind *Individual) string {
	return fmt.Sprintf("%x|%x|%v|%v|%v|%v|%v|%v",
		ind.Power, ind.Objectives, ind.Feasible, ind.FeasibleNoDrop,
		ind.Service, ind.GraphWCRT, ind.Dropped, ind.scen)
}

// FuzzEvaluateAllMatchesEvaluate is the whole-generation differential
// check of the one parallel layer inside a run: every member of a
// generation scored by isl.evaluateAll, at one and at two workers, must
// evaluate exactly as Problem.Evaluate scores it alone. The fuzz input
// picks the problem (tinyProblem or Cruise), the seed, the generation
// size (2-16), how many members come from same-system cohorts
// (makeBatchGeneration) rather than random repaired genomes, and the
// track flag. The analysis runs on the sched.Reference oracle, so the
// check shares no code with the production backend.
func FuzzEvaluateAllMatchesEvaluate(f *testing.F) {
	f.Add(false, int64(1), byte(14), byte(8), false)
	f.Add(false, int64(7), byte(6), byte(0), true)
	f.Add(true, int64(3), byte(10), byte(6), false)
	f.Add(true, int64(11), byte(3), byte(2), true)
	f.Fuzz(func(t *testing.T, cruise bool, seed int64, size, cohort byte, track bool) {
		var p *Problem
		if cruise {
			b := benchmarks.Cruise()
			var err error
			if p, err = NewProblem(b.Arch, b.Apps); err != nil {
				t.Fatal(err)
			}
		} else {
			p = tinyProblem(t)
		}
		p.Analysis.Analyzer = sched.Reference{}

		n := 2 + int(size)%15
		nCohort := int(cohort) % (n + 1)
		rng := rand.New(rand.NewSource(seed))
		genomes := make([]*Genome, 0, n)
		if nCohort > 0 {
			variants := 2 + int(cohort)%3
			bases := (nCohort + variants - 1) / variants
			genomes = append(genomes, makeBatchGeneration(p, rng, bases, variants)[:nCohort]...)
		}
		for len(genomes) < n {
			g := p.RandomGenome(rng)
			p.Repair(g, rng)
			genomes = append(genomes, g)
		}
		rng.Shuffle(len(genomes), func(i, j int) { genomes[i], genomes[j] = genomes[j], genomes[i] })

		want := make([]string, n)
		for i, g := range genomes {
			ind, err := p.Evaluate(g, track)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = indSignature(ind)
		}
		for _, workers := range []int{1, 2} {
			pool := workpool.New(workers)
			ev, opts := newRunEvaluator(p, Options{Workers: workers, Pool: pool,
				TrackDroppingGain: track}.withDefaults())
			got, err := newIsland(0, p, opts, seed, ev).evaluateAll(genomes)
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range genomes {
				if got[i].Genome != g {
					t.Fatalf("workers=%d member %d: result carries another genome", workers, i)
				}
				if gs := indSignature(got[i]); gs != want[i] {
					t.Fatalf("workers=%d member %d: evaluateAll diverged from Evaluate:\n got %s\nwant %s",
						workers, i, gs, want[i])
				}
			}
		}
	})
}

// fuzzGenome prepares the genome of the gene-path fuzz targets: it
// raises p's chromosome caps the way buildWorkerIsland raises them
// (MaxK up to 6, MaxReplicas up to the processor count; 0 keeps the
// default), draws a genome from seed, repairs it when asked, and
// optionally maps one locus (task, replica or voter) to an unknown
// processor.
func fuzzGenome(p *Problem, seed int64, repaired bool, maxK, maxReplicas byte, locus uint16) *Genome {
	if maxK > 0 {
		p.MaxK = 1 + int(maxK)%6
	}
	if n := len(p.Arch.Procs); maxReplicas > 0 && n >= hardening.ActiveBase+1 {
		p.MaxReplicas = hardening.ActiveBase + 1 + int(maxReplicas)%(n-hardening.ActiveBase)
	}
	rng := rand.New(rand.NewSource(seed))
	g := p.RandomGenome(rng)
	if repaired {
		p.Repair(g, rng)
	}
	if locus > 0 {
		ge := &g.Genes[int(locus/3)%len(g.Genes)]
		unknown := model.ProcID(len(p.Arch.Procs) + int(locus)%5)
		switch locus % 3 {
		case 0:
			ge.Map = unknown
		case 1:
			ge.ReplicaMap[int(locus)%len(ge.ReplicaMap)] = unknown
		default:
			ge.VoterMap = unknown
		}
	}
	return g
}

// FuzzGeneReliabilityMatchesAssess checks the reliability check repair
// and evaluation run on genes against Decode plus reliability.Assess
// (checkGeneReliability). The fuzz input picks a bundled benchmark and a
// seed, a raw or a repaired genome, raised chromosome caps and
// optionally one locus on an unknown processor (see fuzzGenome).
func FuzzGeneReliabilityMatchesAssess(f *testing.F) {
	f.Add(byte(1), int64(1), false, byte(0), byte(0), uint16(0))
	f.Add(byte(1), int64(2), true, byte(0), byte(0), uint16(0))
	f.Add(byte(0), int64(3), true, byte(6), byte(4), uint16(0))
	f.Add(byte(4), int64(4), false, byte(2), byte(6), uint16(7))
	f.Add(byte(2), int64(5), true, byte(5), byte(5), uint16(11))
	f.Fuzz(func(t *testing.T, bench byte, seed int64, repaired bool, maxK, maxReplicas byte, locus uint16) {
		names := benchmarks.Names()
		p := benchProblem(t, names[int(bench)%len(names)])
		checkGeneReliability(t, p, fuzzGenome(p, seed, repaired, maxK, maxReplicas, locus))
	})
}

// FuzzGeneCompileMatchesCompile checks the gene path evaluation runs —
// placementOK, compileGenes, geneUtil and the drop set taken from Keep —
// against Decode plus platform.Compile and power.Expected
// (checkGeneCompile): the System signature, the error and the power bit
// for bit. The fuzz input is FuzzGeneReliabilityMatchesAssess's plus
// typed: when non-zero, the odd processors are of type "dsp" and task
// typed (modulo the task count) may run only there, so placements can
// break CanRunOn.
func FuzzGeneCompileMatchesCompile(f *testing.F) {
	f.Add(byte(1), int64(1), false, byte(0), byte(0), uint16(0), uint16(0))
	f.Add(byte(1), int64(2), true, byte(0), byte(0), uint16(0), uint16(0))
	f.Add(byte(0), int64(3), true, byte(6), byte(4), uint16(0), uint16(0))
	f.Add(byte(4), int64(4), false, byte(2), byte(6), uint16(7), uint16(0))
	f.Add(byte(2), int64(5), true, byte(5), byte(5), uint16(11), uint16(0))
	f.Add(byte(3), int64(6), true, byte(0), byte(3), uint16(0), uint16(3))
	f.Add(byte(1), int64(7), false, byte(4), byte(0), uint16(0), uint16(20))
	f.Fuzz(func(t *testing.T, bench byte, seed int64, repaired bool, maxK, maxReplicas byte, locus, typed uint16) {
		name := benchmarks.Names()[int(bench)%len(benchmarks.Names())]
		p := benchProblem(t, name)
		if typed > 0 {
			if p = typedProblem(t, name, int(typed)); p == nil {
				return // the restriction left the instance unsatisfiable
			}
		}
		checkGeneCompile(t, p, fuzzGenome(p, seed, repaired, maxK, maxReplicas, locus))
	})
}
