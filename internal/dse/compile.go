package dse

import (
	"slices"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/power"
)

// compileTable is the dense form of what evaluation needs to compile a
// genome without task-ID strings or maps: per gene (the chromosome's
// task order), every hardened variant of its task, pre-built; per graph
// (in Apps order), its index form. The variants are shared, read-only,
// by every System built from the table. It is built on first use, with
// the chromosome caps of that moment, so problem setup does not pay for
// it.
type compileTable struct {
	genes  []geneTasks
	graphs []denseGraph
}

// geneTasks holds one gene's task variants, as hardening.Instantiate
// builds them.
type geneTasks struct {
	orig            *model.Task
	plain           *model.Task   // unhardened
	reexec          []*model.Task // reexec[k-1]: re-executed k times
	active, passive []*model.Task // replica r under each technique
	voter, dispatch *model.Task
}

// denseGraph is one graph of the specification in index form: its
// channels as links, and the gene of each task in declaration order.
type denseGraph struct {
	g     *model.TaskGraph
	links []model.Link
	genes []int
}

// compileTable returns the problem's compile table, building it on first
// use.
func (p *Problem) compileTable() *compileTable {
	p.cmpOnce.Do(func() {
		ct := &compileTable{genes: make([]geneTasks, len(p.taskIDs))}
		for _, g := range p.Apps.Graphs {
			// NewProblem validated the set, so every channel resolves.
			links, _ := model.Links(g)
			dg := denseGraph{g: g, links: links, genes: make([]int, len(g.Tasks))}
			for k, t := range g.Tasks {
				i := p.geneIdx[t.ID]
				dg.genes[k] = i
				inst := func(s hardening.Slot, tech hardening.Technique, reexec int) *model.Task {
					return hardening.Instantiate(t, s, hardening.Decision{Technique: tech, K: reexec})
				}
				gt := geneTasks{
					orig:     t,
					plain:    inst(hardening.Slot{}, hardening.None, 0),
					voter:    inst(hardening.Slot{Role: hardening.Voter}, hardening.None, 0),
					dispatch: inst(hardening.Slot{Role: hardening.Dispatch}, hardening.None, 0),
				}
				for n := 1; n <= p.MaxK; n++ {
					gt.reexec = append(gt.reexec, inst(hardening.Slot{}, hardening.ReExecution, n))
				}
				for r := 0; r < p.MaxReplicas; r++ {
					rs := hardening.Slot{Role: hardening.Replica, Replica: r}
					gt.active = append(gt.active, inst(rs, hardening.ActiveReplication, 0))
					gt.passive = append(gt.passive, inst(rs, hardening.PassiveReplication, 0))
				}
				ct.genes[i] = gt
			}
			ct.graphs = append(ct.graphs, dg)
		}
		p.cmp = ct
	})
	return p.cmp
}

// task returns gene i's task variant for slot s under decision d. Caps
// raised after the table was built fall back to a fresh instance.
func (ct *compileTable) task(i int, s hardening.Slot, d hardening.Decision) *model.Task {
	gt := &ct.genes[i]
	switch s.Role {
	case hardening.Self:
		if d.Technique != hardening.ReExecution {
			return gt.plain
		}
		if d.K <= len(gt.reexec) {
			return gt.reexec[d.K-1]
		}
	case hardening.Replica:
		vs := gt.active
		if d.Technique == hardening.PassiveReplication {
			vs = gt.passive
		}
		if s.Replica < len(vs) {
			return vs[s.Replica]
		}
	case hardening.Voter:
		return gt.voter
	case hardening.Dispatch:
		return gt.dispatch
	}
	return hardening.Instantiate(gt.orig, s, d)
}

// placementOK reports whether every locus g's design maps sits on an
// allocated processor and each replicated gene places its replicas on
// pairwise distinct processors: the structural validity evaluation
// requires, which repaired genomes always have.
func (p *Problem) placementOK(g *Genome) bool {
	on := func(pid model.ProcID) bool {
		j := p.Arch.ProcIndex(pid)
		return j >= 0 && j < len(g.Alloc) && g.Alloc[j]
	}
	for i := range g.Genes {
		ge := g.Genes[i]
		p.validateGene(&ge)
		switch ge.Technique {
		case hardening.ActiveReplication, hardening.PassiveReplication:
			placed := ge.ReplicaMap[:ge.Replicas]
			for r, pid := range placed {
				if !on(pid) || slices.Contains(placed[:r], pid) {
					return false
				}
			}
			if !on(ge.VoterMap) {
				return false
			}
		default:
			if !on(ge.Map) {
				return false
			}
		}
	}
	return true
}

// geneSystem is a genome's compiled system together with the index form
// it was built from, which the power model reads, and the memory both
// are built in. A geneSystem is recycled: its System and index form live
// until its next compile.
type geneSystem struct {
	sys *platform.System
	// slots[gi] and procs[gi] give, for each task of the hardened graph
	// gi, its hardening.Slot and its Arch.Procs index.
	slots [][]hardening.Slot
	procs [][]int

	build  platform.Builder
	tf     []hardening.Transformer // one per graph
	mapped []platform.MappedGraph
	// decs[gi] is carved from decBuf, the tasks, processors and channel
	// lists of the hardened graphs from the buffers below.
	decs     [][]hardening.Decision
	decBuf   []hardening.Decision
	graphs   []model.TaskGraph
	graphPtr []*model.TaskGraph
	apps     model.AppSet
	tasks    []*model.Task
	procBuf  []int
	chans    []model.Channel
	chanPtrs []*model.Channel
	util     []float64
}

// grow returns s resized to length n, reusing its capacity; entries are
// left as they were.
func grow[E any](s []E, n int) []E {
	return slices.Grow(s[:0], n)[:n]
}

// compileGenes builds the System that platform.Compile builds for g's
// decoded design, in fresh memory (see compileInto).
func (p *Problem) compileGenes(g *Genome) (*geneSystem, error) {
	gs := new(geneSystem)
	if err := p.compileInto(gs, g); err != nil {
		return nil, err
	}
	return gs, nil
}

// compileInto builds the System that platform.Compile builds for g's
// decoded design into gs, through the same transform
// (hardening.Transform) and builder (platform.Build), from the compile
// table's pre-built tasks. The application set was validated once, by
// NewProblem, and the transform keeps it valid (MC0127 rules out
// artifact IDs that collide), so the only checks left are the ones
// genes decide: every processor is known and admits its task's type
// (model.ValidatePlacement, as in Compile's ValidateMapping).
func (p *Problem) compileInto(gs *geneSystem, g *Genome) error {
	ct := p.compileTable()
	n := len(ct.graphs)
	gs.slots, gs.procs = grow(gs.slots, n), grow(gs.procs, n)
	gs.mapped, gs.decs = grow(gs.mapped, n), grow(gs.decs, n)
	if len(gs.tf) < n {
		gs.tf = make([]hardening.Transformer, n)
	}
	all := grow(gs.decBuf, len(g.Genes))
	gs.decBuf = all
	total, channels := 0, 0
	for gi, dg := range ct.graphs {
		gs.decs[gi], all = all[:len(dg.genes)], all[len(dg.genes):]
		for k, i := range dg.genes {
			ge := g.Genes[i]
			p.validateGene(&ge)
			gs.decs[gi][k] = hardening.Decision{Technique: ge.Technique, K: ge.K, Replicas: ge.Replicas}
		}
		gs.slots[gi], gs.mapped[gi].Links = gs.tf[gi].Transform(len(dg.genes), dg.links, gs.decs[gi])
		total += len(gs.slots[gi])
		channels += len(gs.mapped[gi].Links)
	}
	gs.graphs, gs.graphPtr = grow(gs.graphs, n), grow(gs.graphPtr, n)
	gs.tasks, gs.procBuf = grow(gs.tasks, total), grow(gs.procBuf, total)
	gs.chans, gs.chanPtrs = grow(gs.chans, channels), grow(gs.chanPtrs, channels)
	tasks, procs, chans, chanPtrs := gs.tasks, gs.procBuf, gs.chans, gs.chanPtrs
	gs.apps.Graphs = gs.graphPtr
	for gi, dg := range ct.graphs {
		slots, links := gs.slots[gi], gs.mapped[gi].Links
		hg := &gs.graphs[gi]
		*hg = dg.g.EmptyCopy()
		hg.Tasks, tasks = tasks[:len(slots):len(slots)], tasks[len(slots):]
		gs.procs[gi], procs = procs[:len(slots):len(slots)], procs[len(slots):]
		for k, s := range slots {
			i := dg.genes[s.Task]
			ge := &g.Genes[i]
			pid := ge.VoterMap // voter and dispatch step
			switch s.Role {
			case hardening.Self:
				pid = ge.Map
			case hardening.Replica:
				pid = ge.ReplicaMap[s.Replica]
			}
			t := ct.task(i, s, gs.decs[gi][s.Task])
			j := p.Arch.ProcIndex(pid)
			if err := model.ValidatePlacement(t, pid, p.Arch.Proc(pid)); err != nil {
				return err
			}
			hg.Tasks[k], gs.procs[gi][k] = t, j
		}
		hg.Channels, chanPtrs = chanPtrs[:len(links):len(links)], chanPtrs[len(links):]
		for k, l := range links {
			chans[k] = model.Channel{Src: hg.Tasks[l.Src].ID, Dst: hg.Tasks[l.Dst].ID, Size: l.Size}
			hg.Channels[k] = &chans[k]
		}
		chans = chans[len(links):]
		gs.mapped[gi].Procs = gs.procs[gi]
		gs.apps.Graphs[gi] = hg
	}
	sys, err := gs.build.Build(p.Arch, &gs.apps, gs.mapped, p.Policy)
	if err != nil {
		return err
	}
	gs.sys = sys
	return nil
}

// geneUtil returns the expected utilization of each processor (indexed
// like Arch.Procs) of g's design: the per-task loads of power.Expected
// (power.TaskLoad), accumulated in the same order, so the power folded
// from it is bit-identical. A passive replica's invocation probability
// comes from the failure probabilities of its active siblings. The
// slice is gs's own and lives until its next geneUtil.
func (p *Problem) geneUtil(g *Genome, gs *geneSystem) []float64 {
	ct, rt := p.compileTable(), p.relTable()
	gs.util = grow(gs.util, len(p.Arch.Procs))
	util := gs.util
	clear(util)
	for gi, hg := range gs.sys.Apps.Graphs {
		period := float64(hg.Period)
		for k, t := range hg.Tasks {
			j := gs.procs[gi][k]
			var invoke float64
			if s := gs.slots[gi][k]; t.Passive && s.Role == hardening.Replica {
				i := ct.graphs[gi].genes[s.Task]
				allGood := 1.0
				for a := 0; a < hardening.ActiveBase; a++ {
					allGood *= 1 - rt.fail[i*rt.nproc+p.Arch.ProcIndex(g.Genes[i].ReplicaMap[a])]
				}
				invoke = 1 - allGood
			}
			util[j] += power.TaskLoad(&p.Arch.Procs[j], t, invoke) / period
		}
	}
	return util
}
