package dse

import (
	"bytes"
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
			got, _, err := newIsland(0, p, opts, seed, ev).evaluateAll(genomes)
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

// FuzzGeneReliabilityMatchesAssess checks the reliability check repair
// and evaluation run on genes against Decode plus reliability.Assess
// (checkGeneReliability). The fuzz input picks a bundled benchmark and a
// seed, a raw or a repaired genome, chromosome caps raised after
// NewProblem the way buildWorkerIsland raises them (MaxK up to 6,
// MaxReplicas up to the processor count; 0 keeps the default), and
// optionally one locus (task, replica or voter) mapped to an unknown
// processor.
func FuzzGeneReliabilityMatchesAssess(f *testing.F) {
	f.Add(byte(1), int64(1), false, byte(0), byte(0), uint16(0))
	f.Add(byte(1), int64(2), true, byte(0), byte(0), uint16(0))
	f.Add(byte(0), int64(3), true, byte(6), byte(4), uint16(0))
	f.Add(byte(4), int64(4), false, byte(2), byte(6), uint16(7))
	f.Add(byte(2), int64(5), true, byte(5), byte(5), uint16(11))
	f.Fuzz(func(t *testing.T, bench byte, seed int64, repaired bool, maxK, maxReplicas byte, locus uint16) {
		names := benchmarks.Names()
		p := benchProblem(t, names[int(bench)%len(names)])
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
		checkGeneReliability(t, p, g)
	})
}
