package dse

// Generation-batched evaluation: instead of running every candidate
// through its own compile→Analyze pipeline, evaluateAll
// groups the generation's candidates by the system they compile to and
// evaluates each group against ONE compiled system. The grouping
// exploits what the chromosome encoding leaves out of the compiled
// system:
//
//   - the Keep section selects the drop set but never changes the
//     compiled job set or mapping, so same-system candidates differing
//     only in Keep share the compile and the reliability check, and
//     differ only in which core.Analyze drop sets they need — one
//     analysis per DISTINCT drop set, reused by every sibling carrying
//     it;
//   - the Alloc section gates structural validity and power but never
//     enters the compiled system either;
//   - don't-care loci (ReplicaMap tails beyond Replicas, K under
//     replication, Map under replication, voters of unreplicated tasks)
//     are mutated freely by the GA but are invisible to the phenotype —
//     candidates equal up to don't-care bits are full phenotype
//     duplicates and replay a sibling's Individual outright.
//
// Every shared artifact is identical to what a member's private
// evaluation would have produced — compilation, the reliability check
// and analysis are pure functions of (system, drop set) — so batched and
// per-candidate evaluation yield byte-identical Individuals (pinned
// member by member by TestBatchedMatchesPerCandidate); only the
// scenario counters differ, because shared analyses run the backend
// fewer times.
//
// Per-candidate evaluation is the degenerate case: Problem.Evaluate
// runs a one-member group, so one evaluation body serves every path.
//
// Determinism: groups are formed sequentially over the generation in
// batch order (first-appearance order), members evaluate in batch order
// within their group, and groups — not candidates — are what the
// fan-out distributes, so all sharing decisions are worker-count
// independent and the batch counters are exactly reproducible (the
// island trajectory tests cover this at every worker width).

import (
	"strconv"

	"mcmap/internal/core"
	"mcmap/internal/hardening"
	"mcmap/internal/power"
)

// sysKey fingerprints everything that determines the system a genome
// compiles to — the hardening plan and the effective mapping — and
// nothing else: Keep, Alloc and don't-care loci are excluded, mirroring
// exactly what compileGenes reads. Genes are normalized the way
// compileGenes normalizes them (validateGene on a copy), so clamped
// out-of-range parameters land in the same group as their clamped twins.
// The key is an exact string, not a hash: group sharing replays real
// results, so collisions are not an option.
func (p *Problem) sysKey(g *Genome) string {
	buf := make([]byte, 0, len(g.Genes)*8)
	for i := range g.Genes {
		ge := g.Genes[i]
		p.validateGene(&ge)
		buf = append(buf, byte(ge.Technique), ':')
		switch ge.Technique {
		case hardening.ActiveReplication, hardening.PassiveReplication:
			for r := 0; r < ge.Replicas; r++ {
				buf = strconv.AppendInt(buf, int64(ge.ReplicaMap[r]), 10)
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(ge.VoterMap), 10)
		case hardening.ReExecution:
			buf = strconv.AppendInt(buf, int64(ge.K), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(ge.Map), 10)
		default:
			buf = strconv.AppendInt(buf, int64(ge.Map), 10)
		}
		buf = append(buf, ';')
	}
	return string(buf)
}

// bitsKey renders a bool section as an exact key fragment.
func bitsKey(bs []bool) string {
	buf := make([]byte, len(bs))
	for i, b := range bs {
		buf[i] = '0' + boolByte(b)
	}
	return string(buf)
}

// batchGroup is one same-system cohort of a generation. Members are
// genome indices in batch order; drop and pheno carry each member's
// drop-set key and full phenotype key, parallel to members.
type batchGroup struct {
	members []int
	drop    []string
	pheno   []string
	// hits counts members served by a sibling: phenotype replays plus
	// shared-analysis members (distinct Alloc/Keep over a shared system).
	hits int
}

// buildBatchGroups partitions the generation by compiled system in
// first-appearance order; the grouping never reorders members.
func buildBatchGroups(p *Problem, genomes []*Genome) []*batchGroup {
	groups := make([]*batchGroup, 0, len(genomes))
	bySys := make(map[string]*batchGroup, len(genomes))
	for i := range genomes {
		sk := p.sysKey(genomes[i])
		grp := bySys[sk]
		if grp == nil {
			grp = &batchGroup{}
			bySys[sk] = grp
			groups = append(groups, grp)
		}
		dk := bitsKey(genomes[i].Keep)
		grp.members = append(grp.members, i)
		grp.drop = append(grp.drop, dk)
		grp.pheno = append(grp.pheno, sk+"|"+dk+"|"+bitsKey(genomes[i].Alloc))
	}
	return groups
}

// groupReports is one drop set's analysis results within a group: the
// dropping report and (under TrackDroppingGain) the no-dropping one.
type groupReports struct {
	rep   *core.Report
	repND *core.Report
}

// groupShared is the state one batch group accumulates while its members
// evaluate: the compiled system (one compile for the whole group), the
// number of violated reliability constraints, the processors' expected
// utilization (all functions of the genes the group key covers) and the
// per-drop-set reports. Built lazily by the first member that passes
// the structural-validity gate (util by the first feasible one);
// members run sequentially within their group, so no locking.
type groupShared struct {
	gs         *geneSystem
	violations int
	util       []float64
	reps       map[string]*groupReports
}

func newGroupShared() *groupShared {
	return &groupShared{reps: make(map[string]*groupReports, 2)}
}

// evalGroup evaluates one batch group: members run sequentially in
// member order, replaying full phenotype duplicates and sharing the
// compile, reliability check and analyses through st. Results and
// errors land in out/errs by genome index, exactly like the
// per-candidate drain.
func (isl *island) evalGroup(grp *batchGroup, genomes []*Genome, out []*Individual, errs []error) {
	st := newGroupShared()
	byPheno := make(map[string]int, len(grp.members))
	for n, i := range grp.members {
		if isl.ctx.Err() != nil {
			return
		}
		if j, ok := byPheno[grp.pheno[n]]; ok {
			// Full phenotype duplicate: replay the sibling. cloneFor
			// copies the scenario tally, which the sibling may legitimately
			// carry; this member ran no backend, so zero it.
			c := out[j].cloneFor(genomes[i])
			c.scen = scenarioTally{}
			out[i] = c
			grp.hits++
			continue
		}
		var shared bool
		out[i], shared, errs[i] = isl.p.evaluateGrouped(genomes[i], grp.drop[n], isl.opts.TrackDroppingGain, isl.ev.cfg, st)
		if errs[i] == nil {
			byPheno[grp.pheno[n]] = i
			if shared {
				grp.hits++
			}
		}
	}
}

// evaluateGrouped scores one group member from its genes: the drop set
// and service from Keep, the structural-validity gate, then the
// compile, the reliability check and the per-drop-set analyses, which
// come from (or seed) the group's shared state, and finally power or
// the overrun penalty. The returned shared flag reports whether this
// member reused a sibling's analysis instead of running the backend.
func (p *Problem) evaluateGrouped(g *Genome, dropKey string, trackNoDrop bool, cfg core.Config, st *groupShared) (*Individual, bool, error) {
	ind := &Individual{Genome: g}
	for i, name := range p.droppable {
		if g.Keep[i] {
			ind.Service += p.Apps.Graph(name).Service
		} else {
			ind.Dropped = append(ind.Dropped, name) // droppable is sorted
		}
	}

	// Structural validity: every task on an allocated processor and
	// replicas on pairwise distinct processors. Repaired genomes always
	// satisfy this; with repair disabled (ablation) violations are
	// penalized instead of erroring. The check is per member — Alloc is
	// outside the group key.
	if !p.placementOK(g) {
		ind.Power = infeasiblePenalty * 4
		ind.Objectives = Objectives{ind.Power, infeasiblePenalty}
		return ind, false, nil
	}

	if st.gs == nil {
		// First structurally valid member compiles and checks
		// reliability for the whole group. Both are functions of the
		// hardening and mapping genes, which every member shares by
		// construction of the group key.
		gs, err := p.compileGenes(g)
		if err != nil {
			return nil, false, err
		}
		viol, err := p.violations(g, nil)
		if err != nil {
			return nil, false, err
		}
		st.gs, st.violations = gs, len(viol)
	}
	sys, relOK := st.gs.sys, st.violations == 0

	gr, shared := st.reps[dropKey], true
	if gr == nil {
		shared = false
		dropped := make(core.DropSet, len(ind.Dropped))
		for _, name := range ind.Dropped {
			dropped[name] = true
		}
		rep, err := core.Analyze(sys, dropped, cfg)
		if err != nil {
			return nil, false, err
		}
		ind.scen.add(rep)
		gr = &groupReports{rep: rep}
		if trackNoDrop {
			repND, err := core.Analyze(sys, core.DropSet{}, cfg)
			if err != nil {
				return nil, false, err
			}
			ind.scen.add(repND)
			gr.repND = repND
		}
		st.reps[dropKey] = gr
	}
	rep := gr.rep
	ind.GraphWCRT = rep.GraphWCRT
	ind.Feasible = rep.Feasible() && relOK
	if trackNoDrop {
		ind.FeasibleNoDrop = gr.repND.Feasible() && relOK
	}

	if ind.Feasible {
		if st.util == nil {
			st.util = p.geneUtil(g, st.gs)
		}
		ind.Power = power.Fold(p.Arch, st.util, g.Alloc, nil)
		ind.Objectives = Objectives{ind.Power, -ind.Service}
		return ind, shared, nil
	}
	// Penalty with an overrun gradient.
	overrun := 0.0
	for gi, gph := range sys.Apps.Graphs {
		w := rep.GraphWCRT[gi]
		d := gph.EffectiveDeadline()
		if w.IsInfinite() {
			overrun += 10
		} else if w > d {
			overrun += float64(w-d) / float64(d)
		}
	}
	overrun += float64(st.violations)
	ind.Power = infeasiblePenalty * (1 + overrun)
	ind.Objectives = Objectives{ind.Power, infeasiblePenalty}
	return ind, shared, nil
}
