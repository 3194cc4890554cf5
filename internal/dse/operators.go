package dse

import (
	"math/rand"

	"mcmap/internal/hardening"
)

// Crossover produces one child by uniform crossover per chromosome
// section: each allocation bit, keep bit and whole task gene is inherited
// from either parent with equal probability.
func (p *Problem) Crossover(a, b *Genome, rng *rand.Rand) *Genome {
	child := a.shallowClone()
	for i := range child.Alloc {
		if rng.Intn(2) == 0 {
			child.Alloc[i] = b.Alloc[i]
		}
	}
	for i := range child.Keep {
		if rng.Intn(2) == 0 {
			child.Keep[i] = b.Keep[i]
		}
	}
	for i := range child.Genes {
		if rng.Intn(2) == 0 {
			child.Genes[i] = b.Genes[i]
		}
	}
	child.ownReplicaMaps()
	return child
}

// Mutate flips allocation and keep bits and perturbs task genes in place.
// rate is the per-locus mutation probability.
func (p *Problem) Mutate(g *Genome, rate float64, rng *rand.Rand) {
	for i := range g.Alloc {
		if rng.Float64() < rate {
			g.Alloc[i] = !g.Alloc[i]
		}
	}
	for i := range g.Keep {
		if rng.Float64() < rate {
			g.Keep[i] = !g.Keep[i]
		}
	}
	for i := range g.Genes {
		if rng.Float64() < rate {
			p.mutateGene(&g.Genes[i], rng)
		}
	}
}

// mutateGene applies one random edit to a task gene: remap, re-parameterize
// or switch technique.
func (p *Problem) mutateGene(ge *TaskGene, rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0: // remap the task / a replica / the voter
		switch rng.Intn(3) {
		case 0:
			ge.Map = p.randomProc(rng)
		case 1:
			ge.ReplicaMap[rng.Intn(len(ge.ReplicaMap))] = p.randomProc(rng)
		default:
			ge.VoterMap = p.randomProc(rng)
		}
	case 1: // tweak the degree
		switch ge.Technique {
		case hardening.ReExecution:
			ge.K += []int{-1, 1}[rng.Intn(2)]
		case hardening.ActiveReplication, hardening.PassiveReplication:
			ge.Replicas += []int{-1, 1}[rng.Intn(2)]
		default:
			ge.Map = p.randomProc(rng)
		}
	default: // switch technique
		*ge = TaskGene{
			Map:        ge.Map,
			VoterMap:   ge.VoterMap,
			ReplicaMap: ge.ReplicaMap,
		}
		switch rng.Intn(4) {
		case 0:
			ge.Technique = hardening.None
		case 1:
			ge.Technique = hardening.ReExecution
			ge.K = 1 + rng.Intn(p.MaxK)
		case 2:
			ge.Technique = hardening.ActiveReplication
			ge.Replicas = 2 + rng.Intn(p.MaxReplicas-1)
		default:
			ge.Technique = hardening.PassiveReplication
			ge.Replicas = hardening.ActiveBase + 1 + rng.Intn(p.MaxReplicas-hardening.ActiveBase)
		}
	}
	p.validateGene(ge)
}
