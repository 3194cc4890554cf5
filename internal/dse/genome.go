// Package dse implements the design-space exploration of Section 4: a
// genetic algorithm over the three-section chromosome of Figure 4
// (processor allocation, per-application keep/drop selection, per-task
// binding + hardening), with the randomized repair heuristics of the
// paper, SPEA2 environmental selection and parallel fitness evaluation.
//
// Objectives follow Section 2.3: minimize the expected power consumption
// sum_p (stat_p + dyn_p*u_p), and maximize the quality of service after
// task dropping sum_{t not in T_d} sv_t.
package dse

import (
	"fmt"
	"math/bits"
	"math/rand"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
)

// TaskGene is the binding/hardening section entry for one original task
// (Figure 4): the hardening technique and its degree, the mapping of the
// task (or of each replica) and the mapping of the voter.
type TaskGene struct {
	Technique hardening.Technique
	// K is the re-execution degree (used when Technique == ReExecution).
	K int
	// Replicas is the clone count (used for replication techniques).
	Replicas int
	// Map is the processor of the task itself (unreplicated case).
	Map model.ProcID
	// ReplicaMap[i] is the processor of replica i (first Replicas entries
	// are active; the slice is sized MaxReplicas and carried whole
	// through crossover).
	ReplicaMap []model.ProcID
	// VoterMap is the processor of the majority voter.
	VoterMap model.ProcID
}

// Genome is the full chromosome.
type Genome struct {
	// Alloc marks allocated (powered-on) processors, indexed like
	// Arch.Procs.
	Alloc []bool
	// Keep marks droppable applications that are NOT dropped in critical
	// mode, indexed like Problem.DroppableNames.
	Keep []bool
	// Genes holds one entry per original task, indexed like
	// Problem.TaskIDs.
	Genes []TaskGene
}

// Clone deep-copies the genome.
func (g *Genome) Clone() *Genome {
	c := g.shallowClone()
	c.ownReplicaMaps()
	return c
}

// shallowClone copies the genome's sections, leaving every gene's
// ReplicaMap shared with g.
func (g *Genome) shallowClone() *Genome {
	c := &Genome{
		Alloc: append([]bool(nil), g.Alloc...),
		Keep:  append([]bool(nil), g.Keep...),
		Genes: make([]TaskGene, len(g.Genes)),
	}
	copy(c.Genes, g.Genes)
	return c
}

// ownReplicaMaps gives every gene a private copy of its ReplicaMap, all
// carved from one array, so a genome's replica maps cost one allocation
// instead of one per gene. Empty maps become nil.
func (g *Genome) ownReplicaMaps() {
	total := 0
	for i := range g.Genes {
		total += len(g.Genes[i].ReplicaMap)
	}
	var rm []model.ProcID
	if total > 0 {
		rm = make([]model.ProcID, total)
	}
	for i := range g.Genes {
		ge := &g.Genes[i]
		k := len(ge.ReplicaMap)
		if k == 0 {
			ge.ReplicaMap = nil
			continue
		}
		copy(rm, ge.ReplicaMap)
		ge.ReplicaMap, rm = rm[:k:k], rm[k:]
	}
}

// Key128 is a 128-bit FNV-style genome fingerprint: building it
// allocates nothing, it is a comparable value usable directly as a map
// key, and it mixes full-width words, so processor ids and degrees of
// any size feed it. Callers use it to identify or deduplicate genomes
// (e.g. in archive digests); it is a fingerprint, not an exact key — at
// 128 bits over non-adversarial GA offspring, a colliding pair within
// one run is vanishingly improbable.
type Key128 struct{ Hi, Lo uint64 }

// FNV-128 offset basis and prime (see internal/core's exec fingerprint
// for the word-folding rationale: the hash only has to spread well).
const (
	key128BasisHi = 0x6c62272e07bb0142
	key128BasisLo = 0x62b821756295c58d
	key128PrimeHi = 1 << 24
	key128PrimeLo = 0x13b
)

func (k Key128) mix(word uint64) Key128 {
	k.Lo ^= word
	// (Hi·2^64 + Lo) · (PrimeHi·2^64 + PrimeLo) mod 2^128.
	carryHi, lo := bits.Mul64(k.Lo, key128PrimeLo)
	hi := k.Hi*key128PrimeLo + k.Lo*key128PrimeHi + carryHi
	return Key128{Hi: hi, Lo: lo}
}

// mixBits folds a bool section 64 entries per word. Section lengths are
// mixed by the caller, so the zero-padding of the trailing partial word
// is unambiguous.
func (k Key128) mixBits(bs []bool) Key128 {
	word, n := uint64(0), 0
	for _, b := range bs {
		word = word<<1 | uint64(boolByte(b))
		if n++; n == 64 {
			k = k.mix(word)
			word, n = 0, 0
		}
	}
	if n > 0 {
		k = k.mix(word)
	}
	return k
}

// Key128 fingerprints the full chromosome.
func (g *Genome) Key128() Key128 {
	k := Key128{Hi: key128BasisHi, Lo: key128BasisLo}
	k = k.mix(uint64(len(g.Alloc))<<32 | uint64(uint32(len(g.Keep))))
	k = k.mixBits(g.Alloc)
	k = k.mixBits(g.Keep)
	for i := range g.Genes {
		ge := &g.Genes[i]
		k = k.mix(uint64(ge.Technique)<<48 | uint64(uint16(ge.K))<<32 | uint64(uint32(ge.Replicas)))
		k = k.mix(uint64(uint32(ge.Map))<<32 | uint64(uint32(ge.VoterMap)))
		for _, p := range ge.ReplicaMap {
			k = k.mix(uint64(uint32(p)))
		}
	}
	return k
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// RandomGenome samples a fresh chromosome.
func (p *Problem) RandomGenome(rng *rand.Rand) *Genome {
	g := &Genome{
		Alloc: make([]bool, len(p.Arch.Procs)),
		Keep:  make([]bool, len(p.droppable)),
		Genes: make([]TaskGene, len(p.taskIDs)),
	}
	for i := range g.Alloc {
		g.Alloc[i] = rng.Float64() < 0.7
	}
	for i := range g.Keep {
		g.Keep[i] = rng.Float64() < 0.5
	}
	for i := range g.Genes {
		g.Genes[i] = p.randomGene(rng)
	}
	return g
}

func (p *Problem) randomGene(rng *rand.Rand) TaskGene {
	ge := TaskGene{
		Map:        p.randomProc(rng),
		VoterMap:   p.randomProc(rng),
		ReplicaMap: make([]model.ProcID, p.MaxReplicas),
	}
	for i := range ge.ReplicaMap {
		ge.ReplicaMap[i] = p.randomProc(rng)
	}
	switch r := rng.Float64(); {
	case r < 0.55:
		ge.Technique = hardening.None
	case r < 0.80:
		ge.Technique = hardening.ReExecution
		ge.K = 1 + rng.Intn(p.MaxK)
	case r < 0.90:
		ge.Technique = hardening.ActiveReplication
		ge.Replicas = 2 + rng.Intn(p.MaxReplicas-1)
	default:
		ge.Technique = hardening.PassiveReplication
		ge.Replicas = hardening.ActiveBase + 1 + rng.Intn(p.MaxReplicas-hardening.ActiveBase)
	}
	return ge
}

func (p *Problem) randomProc(rng *rand.Rand) model.ProcID {
	return p.Arch.Procs[rng.Intn(len(p.Arch.Procs))].ID
}

// SeedGenomes returns heuristic starting points injected into the initial
// population: all processors allocated, every task re-executed once,
// applications clustered round-robin over the processors, with the
// keep/drop section varied (drop all, keep all, keep half). They speed up
// convergence on tightly constrained instances without biasing the
// objectives (the GA is free to discard them).
func (p *Problem) SeedGenomes() []*Genome {
	if len(p.taskIDs) == 0 {
		return nil
	}
	graphOf := make(map[model.TaskID]int, len(p.taskIDs))
	for gi, g := range p.Apps.Graphs {
		for _, t := range g.Tasks {
			graphOf[t.ID] = gi
		}
	}
	base := &Genome{
		Alloc: make([]bool, len(p.Arch.Procs)),
		Keep:  make([]bool, len(p.droppable)),
		Genes: make([]TaskGene, len(p.taskIDs)),
	}
	for i := range base.Alloc {
		base.Alloc[i] = true
	}
	for i, id := range p.taskIDs {
		gi := graphOf[id]
		proc := p.Arch.Procs[gi%len(p.Arch.Procs)].ID
		ge := TaskGene{
			Map:        proc,
			VoterMap:   proc,
			ReplicaMap: make([]model.ProcID, p.MaxReplicas),
		}
		for r := range ge.ReplicaMap {
			ge.ReplicaMap[r] = p.Arch.Procs[(gi+r)%len(p.Arch.Procs)].ID
		}
		// Critical tasks get one re-execution; droppable tasks stay
		// unhardened.
		if !p.Apps.Graphs[gi].Droppable() {
			ge.Technique = hardening.ReExecution
			ge.K = 1
		}
		base.Genes[i] = ge
	}
	dropAll := base.Clone()
	keepAll := base.Clone()
	for i := range keepAll.Keep {
		keepAll.Keep[i] = true
	}
	keepHalf := base.Clone()
	for i := range keepHalf.Keep {
		keepHalf.Keep[i] = i%2 == 0
	}
	return []*Genome{dropAll, keepAll, keepHalf}
}

// validateGene normalizes out-of-range parameters (defensive against
// mutations).
func (p *Problem) validateGene(ge *TaskGene) {
	switch ge.Technique {
	case hardening.ReExecution:
		if ge.K < 1 {
			ge.K = 1
		}
		if ge.K > p.MaxK {
			ge.K = p.MaxK
		}
		ge.Replicas = 0
	case hardening.ActiveReplication:
		if ge.Replicas < 2 {
			ge.Replicas = 2
		}
		if ge.Replicas > p.MaxReplicas {
			ge.Replicas = p.MaxReplicas
		}
		ge.K = 0
	case hardening.PassiveReplication:
		if ge.Replicas < hardening.ActiveBase+1 {
			ge.Replicas = hardening.ActiveBase + 1
		}
		if ge.Replicas > p.MaxReplicas {
			ge.Replicas = p.MaxReplicas
		}
		ge.K = 0
	default:
		ge.Technique = hardening.None
		ge.K = 0
		ge.Replicas = 0
	}
}

// String renders a short human-readable genome summary.
func (g *Genome) String() string {
	alloc := 0
	for _, b := range g.Alloc {
		if b {
			alloc++
		}
	}
	kept := 0
	for _, b := range g.Keep {
		if b {
			kept++
		}
	}
	return fmt.Sprintf("genome{alloc:%d/%d kept:%d/%d tasks:%d}", alloc, len(g.Alloc), kept, len(g.Keep), len(g.Genes))
}
