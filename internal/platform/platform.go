// Package platform compiles a problem instance — architecture, (hardened)
// application set and a task-to-processor mapping — into a dense,
// integer-indexed representation shared by the schedulability analyses and
// the discrete-event simulator.
//
// Compilation unrolls every task graph over the hyperperiod: a graph with
// period T in hyperperiod H contributes H/T instances, and every task of
// every instance becomes one job node with an absolute release offset.
// This job-level view is what the paper's Algorithm 1 needs — its
// minStart/maxFinish comparisons are between absolute windows inside the
// hyperperiod (Figure 3) — and it lets dropped jobs disappear from the
// analysis individually. Compilation also assigns the fixed priorities
// used by the per-processor schedulers.
package platform

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"mcmap/internal/model"
)

// NodeID indexes a job node in a compiled System.
type NodeID int

// Edge is a directed dependency between job nodes of the same graph
// instance, with the contention-free communication delay already resolved
// against the mapping.
type Edge struct {
	From NodeID
	To   NodeID
	Size int64
	// Delay is the fabric transfer time: zero for same-processor
	// communication, Fabric.TransferTime otherwise.
	Delay model.Time
}

// Node is one job: a task of one graph instance inside the hyperperiod.
type Node struct {
	ID    NodeID
	Task  *model.Task
	Graph *model.TaskGraph
	// GraphIdx is the index of the owning graph in the AppSet.
	GraphIdx int
	// Instance is the job index within the hyperperiod (0 .. H/T - 1).
	Instance int
	// Release is the absolute release offset of this instance
	// (Instance * Period) within the hyperperiod.
	Release model.Time
	// AbsDeadline is Release + the graph's relative deadline.
	AbsDeadline model.Time
	Proc        model.ProcID
	// NonPreemptive mirrors the hosting processor's scheduling mode.
	NonPreemptive bool
	// Priority is the fixed scheduling priority; lower value means higher
	// priority. Priorities are unique across all job nodes.
	Priority int
	// Depth is the task's depth in its graph: 0 for sources, otherwise 1
	// + the deepest predecessor. The priority policies break ties on it.
	Depth int
	// BCET/WCET are the single-execution times scaled to the processor
	// speed, excluding hardening overheads.
	BCET model.Time
	WCET model.Time
	// DetectOverhead scaled to the processor.
	DetectOverhead model.Time
	// Period and Deadline of the owning graph (copied for locality).
	Period   model.Time
	Deadline model.Time

	In  []Edge
	Out []Edge
}

// NominalBCET returns the fault-free best-case execution time including
// the detection overhead of re-executable tasks (k = 0 of Eq. 1).
func (n *Node) NominalBCET() model.Time {
	if n.Task.ReExecutable() {
		return n.BCET + n.DetectOverhead
	}
	return n.BCET
}

// NominalWCET returns the fault-free worst-case execution time including
// the detection overhead of re-executable tasks.
func (n *Node) NominalWCET() model.Time {
	if n.Task.ReExecutable() {
		return n.WCET + n.DetectOverhead
	}
	return n.WCET
}

// HardenedWCET is Eq. (1) on processor-scaled times: (wcet + dt) * (k+1).
func (n *Node) HardenedWCET() model.Time {
	if !n.Task.ReExecutable() {
		return n.NominalWCET()
	}
	return (n.WCET + n.DetectOverhead) * model.Time(n.Task.ReExec+1)
}

// PriorityPolicy assigns unique priorities to all job nodes.
// Implementations must be deterministic.
type PriorityPolicy interface {
	// Assign returns a permutation of 0..len(nodes)-1 giving each node's
	// priority (nodes[i] gets priority perm[i], lower = more urgent).
	Assign(sys *System) []int
	// Name identifies the policy in reports.
	Name() string
}

// System is the compiled platform.
type System struct {
	Arch *model.Architecture
	Apps *model.AppSet

	Nodes []*Node
	// GraphInstances[gi][k] lists the node IDs of instance k of graph gi
	// in topological order.
	GraphInstances [][][]NodeID
	// GraphNodes[gi] lists all node IDs of graph gi (all instances,
	// instance-major, topological within an instance).
	GraphNodes [][]NodeID
	// ProcNodes lists, per processor, the node IDs mapped to it in
	// priority order.
	ProcNodes map[model.ProcID][]NodeID
	// Hyperperiod is the LCM of all graph periods.
	Hyperperiod model.Time
	// ancestors[i] is a bitset over nodes marking the transitive
	// predecessors of node i within its instance. The analysis uses it to
	// avoid charging interference from jobs that by construction finish
	// before i starts.
	ancestors [][]uint64
}

// IsAncestor reports whether node a is a (transitive) predecessor of node
// b within the same graph instance.
func (s *System) IsAncestor(a, b NodeID) bool {
	return s.ancestors[b][int(a)/64]&(1<<(uint(a)%64)) != 0
}

// Compile builds a System. The mapping must cover every task. The policy
// may be nil, selecting DefaultPolicy. Compile validates its input,
// lowers it to index form and hands it to Build.
func Compile(arch *model.Architecture, apps *model.AppSet, mapping model.Mapping, policy PriorityPolicy) (*System, error) {
	if err := model.ValidateArchitecture(arch); err != nil {
		return nil, err
	}
	if err := model.ValidateAppSet(apps); err != nil {
		return nil, err
	}
	if err := model.ValidateMapping(arch, apps, mapping); err != nil {
		return nil, err
	}
	graphs := make([]MappedGraph, len(apps.Graphs))
	procs := make([]int, apps.NumTasks())
	for gi, g := range apps.Graphs {
		links, err := model.Links(g)
		if err != nil {
			return nil, err
		}
		gp := procs[:len(g.Tasks):len(g.Tasks)]
		procs = procs[len(g.Tasks):]
		for k, t := range g.Tasks {
			gp[k] = arch.ProcIndex(mapping[t.ID])
		}
		graphs[gi] = MappedGraph{Links: links, Procs: gp}
	}
	return Build(arch, apps, graphs, policy)
}

// MappedGraph is one graph of a mapped application set in index form:
// its channels as links between positions in the graph's Tasks, and the
// Arch.Procs index of each task's processor.
type MappedGraph struct {
	Links []model.Link
	Procs []int
}

// Build compiles a mapped application set in index form: graphs[gi]
// describes apps.Graphs[gi]. It is a Builder's Build on fresh memory.
// Build trusts its input — acyclic graphs with at least one task,
// processor indices in range, tasks allowed on their processors — as
// Compile validates it.
func Build(arch *model.Architecture, apps *model.AppSet, graphs []MappedGraph, policy PriorityPolicy) (*System, error) {
	var b Builder
	return b.Build(arch, apps, graphs, policy)
}

// Builder is the one place that creates a System's nodes, edges,
// ancestor bitsets, priorities and per-processor lists, and it keeps
// them in bulk arrays it recycles: a System from a Builder lives until
// that Builder's next Build, which overwrites its nodes, lists and
// bitsets. Every Build returns a fresh *System header, so a cache
// keyed by the header (the holistic backend's kernel cache) never
// mistakes a rebuilt system for the one before it. The zero value is
// ready; a Builder is not safe for concurrent use.
type Builder struct {
	nodes     []Node
	nodePtrs  []*Node
	edges     []Edge
	ids       []NodeID // GraphNodes and GraphInstances, then ProcNodes
	instances [][]NodeID
	perGraph  [][]NodeID   // GraphNodes
	perInst   [][][]NodeID // GraphInstances
	procNodes map[model.ProcID][]NodeID
	words     []uint64
	ancestors [][]uint64
	byRank    []NodeID
	// topo backs every graph's TopoSortInto; orders and depths index it.
	topo           []int
	orders, depths [][]int
	scratch        []int
	procCount      []int
}

// grow returns s resized to length n, reusing its capacity; entries
// are left as they were.
func grow[E any](s []E, n int) []E {
	return slices.Grow(s[:0], n)[:n]
}

// Build compiles like the package-level Build, into b's arrays.
func (b *Builder) Build(arch *model.Architecture, apps *model.AppSet, graphs []MappedGraph, policy PriorityPolicy) (*System, error) {
	hp, err := apps.Hyperperiod()
	if err != nil {
		return nil, err
	}
	// Per graph, the topological order (with depths) and the instance
	// count; then the sizes of every bulk allocation.
	topoLen := 0
	for gi, mg := range graphs {
		topoLen += model.TopoSortLen(len(apps.Graphs[gi].Tasks), mg.Links)
	}
	b.topo = grow(b.topo, topoLen)
	b.orders, b.depths = grow(b.orders, len(graphs)), grow(b.depths, len(graphs))
	topo := b.topo
	nNodes, nEdges, nInst, maxTasks := 0, 0, 0, 0
	for gi, mg := range graphs {
		g := apps.Graphs[gi]
		buf := topo[:model.TopoSortLen(len(g.Tasks), mg.Links)]
		topo = topo[len(buf):]
		order, depth, ok := model.TopoSortInto(buf, len(g.Tasks), mg.Links)
		if !ok {
			return nil, fmt.Errorf("platform: graph %q contains a cycle", g.Name)
		}
		b.orders[gi], b.depths[gi] = order, depth
		inst := int(hp / g.Period)
		nNodes += inst * len(g.Tasks)
		nEdges += inst * len(mg.Links)
		nInst += inst
		maxTasks = max(maxTasks, len(g.Tasks))
	}
	if b.procNodes == nil {
		b.procNodes = make(map[model.ProcID][]NodeID)
	}
	clear(b.procNodes)
	b.nodePtrs = grow(b.nodePtrs, nNodes)
	b.perInst, b.perGraph = grow(b.perInst, len(graphs)), grow(b.perGraph, len(graphs))
	sys := &System{
		Arch:           arch,
		Apps:           apps,
		Nodes:          b.nodePtrs,
		GraphInstances: b.perInst,
		GraphNodes:     b.perGraph,
		ProcNodes:      b.procNodes,
		Hyperperiod:    hp,
	}
	b.nodes = grow(b.nodes, nNodes)
	b.edges = grow(b.edges, 2*nEdges)
	b.ids = grow(b.ids, 2*nNodes)
	b.instances = grow(b.instances, nInst)
	b.scratch = grow(b.scratch, 3*maxTasks)
	b.procCount = grow(b.procCount, len(arch.Procs))
	clear(b.procCount)
	nodes, edges, ids, instances, scratch, procCount := b.nodes, b.edges, b.ids, b.instances, b.scratch, b.procCount
	lists := ids[nNodes:]
	next := 0
	for gi, mg := range graphs {
		g := apps.Graphs[gi]
		n := len(g.Tasks)
		// pos[t] is task t's position in topological order; a node's
		// edges are carved from edges with exact capacities, so the
		// appends below fill them in channel order without growing.
		pos, degIn, degOut := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
		clear(degIn)
		clear(degOut)
		for x, t := range b.orders[gi] {
			pos[t] = x
		}
		for _, l := range mg.Links {
			degOut[l.Src]++
			degIn[l.Dst]++
		}
		inst := int(hp / g.Period)
		sys.GraphNodes[gi] = ids[next : next+inst*n : next+inst*n]
		sys.GraphInstances[gi], instances = instances[:inst:inst], instances[inst:]
		for k := 0; k < inst; k++ {
			release := model.Time(k) * g.Period
			base := next
			sys.GraphInstances[gi][k] = ids[base : base+n : base+n]
			for _, t := range b.orders[gi] {
				task, proc := g.Tasks[t], &arch.Procs[mg.Procs[t]]
				nd := &nodes[next]
				*nd = Node{
					ID:             NodeID(next),
					Task:           task,
					Graph:          g,
					GraphIdx:       gi,
					Instance:       k,
					Release:        release,
					AbsDeadline:    release + g.EffectiveDeadline(),
					Proc:           proc.ID,
					NonPreemptive:  proc.NonPreemptive,
					Depth:          b.depths[gi][t],
					BCET:           proc.ScaleExecFloor(task.BCET),
					WCET:           proc.ScaleExec(task.WCET),
					DetectOverhead: proc.ScaleExec(task.DetectOverhead),
					Period:         g.Period,
					Deadline:       g.EffectiveDeadline(),
				}
				if d := degIn[t]; d > 0 {
					nd.In, edges = edges[:0:d], edges[d:]
				}
				if d := degOut[t]; d > 0 {
					nd.Out, edges = edges[:0:d], edges[d:]
				}
				ids[next] = NodeID(next)
				sys.Nodes[next] = nd
				procCount[mg.Procs[t]]++
				next++
			}
			for _, l := range mg.Links {
				from, to := &nodes[base+pos[l.Src]], &nodes[base+pos[l.Dst]]
				var delay model.Time
				if from.Proc != to.Proc {
					delay = arch.Fabric.TransferTimeBetween(from.Proc, to.Proc, l.Size, len(arch.Procs))
				}
				e := Edge{From: from.ID, To: to.ID, Size: l.Size, Delay: delay}
				from.Out = append(from.Out, e)
				to.In = append(to.In, e)
			}
		}
	}
	// Transitive ancestor bitsets. Instances are independent and their
	// node IDs are consecutive and topologically ordered, so each node
	// folds in its predecessors' words of its own instance only.
	words := (nNodes + 63) / 64
	b.words = grow(b.words, words*nNodes)
	clear(b.words)
	b.ancestors = grow(b.ancestors, nNodes)
	sys.ancestors = b.ancestors
	for i := range sys.ancestors {
		sys.ancestors[i] = b.words[i*words : (i+1)*words]
	}
	for gi := range sys.GraphInstances {
		for _, ids := range sys.GraphInstances[gi] {
			lo, hi := int(ids[0])/64, int(ids[len(ids)-1])/64+1
			for _, nid := range ids {
				anc := sys.ancestors[nid]
				for _, e := range nodes[nid].In {
					anc[int(e.From)/64] |= 1 << (uint(e.From) % 64)
					for w, bits := range sys.ancestors[e.From][lo:hi] {
						anc[lo+w] |= bits
					}
				}
			}
		}
	}
	// Priorities.
	if policy == nil {
		policy = DefaultPolicy{}
	}
	prio := policy.Assign(sys)
	if len(prio) != nNodes {
		return nil, fmt.Errorf("platform: policy %q returned %d priorities for %d nodes", policy.Name(), len(prio), nNodes)
	}
	b.byRank = grow(b.byRank, nNodes)
	byRank := b.byRank
	for i := range byRank {
		byRank[i] = -1
	}
	for i, p := range prio {
		if p < 0 || p >= nNodes || byRank[p] >= 0 {
			return nil, fmt.Errorf("platform: policy %q produced an invalid priority permutation", policy.Name())
		}
		byRank[p] = NodeID(i)
		nodes[i].Priority = p
	}
	// Per-processor lists, highest priority first: carved from one block
	// in architecture order, then filled in rank order.
	for j, c := range procCount {
		if c > 0 {
			sys.ProcNodes[arch.Procs[j].ID], lists = lists[:0:c], lists[c:]
		}
	}
	for _, nid := range byRank {
		pid := nodes[nid].Proc
		sys.ProcNodes[pid] = append(sys.ProcNodes[pid], nid)
	}
	return sys, nil
}

// Node returns the first-instance job node for a task ID, or nil.
func (s *System) Node(id model.TaskID) *Node {
	for _, n := range s.Nodes {
		if n.Task.ID == id {
			return n
		}
	}
	return nil
}

// NodesOf returns all job nodes of a task (one per instance).
func (s *System) NodesOf(id model.TaskID) []*Node {
	var out []*Node
	for _, n := range s.Nodes {
		if n.Task.ID == id {
			out = append(out, n)
		}
	}
	return out
}

// SinkNodes returns the sink job nodes of graph gi (all instances).
func (s *System) SinkNodes(gi int) []*Node {
	var out []*Node
	for _, id := range s.GraphNodes[gi] {
		if len(s.Nodes[id].Out) == 0 {
			out = append(out, s.Nodes[id])
		}
	}
	return out
}

// GraphIndex returns the index of the named graph, or -1.
func (s *System) GraphIndex(name string) int {
	for i, g := range s.Apps.Graphs {
		if g.Name == name {
			return i
		}
	}
	return -1
}

// nodeKey is the deterministic sort key shared by the priority policies:
// two policy-specific leading criteria, then topological depth, task ID
// and instance.
type nodeKey struct {
	k1, k2   int64
	depth    int
	id       model.TaskID
	instance int
}

// sortBuf is assignByKeys' working memory, recycled through sortPool
// so a policy allocates only the permutation it returns.
type sortBuf struct {
	keys []nodeKey
	idx  []int
}

var sortPool = sync.Pool{New: func() any { return new(sortBuf) }}

// assignByKeys ranks the nodes by their keys; lead gives each node's
// policy-specific leading criteria.
func assignByKeys(sys *System, lead func(n *Node) (k1, k2 int64)) []int {
	buf := sortPool.Get().(*sortBuf)
	defer sortPool.Put(buf)
	buf.keys = grow(buf.keys, len(sys.Nodes))
	buf.idx = grow(buf.idx, len(sys.Nodes))
	keys, idx := buf.keys, buf.idx
	for i, n := range sys.Nodes {
		k1, k2 := lead(n)
		keys[i] = nodeKey{k1: k1, k2: k2, depth: n.Depth, id: n.Task.ID, instance: n.Instance}
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		ka, kb := &keys[a], &keys[b]
		if c := cmp.Compare(ka.k1, kb.k1); c != 0 {
			return c
		}
		if c := cmp.Compare(ka.k2, kb.k2); c != 0 {
			return c
		}
		if c := cmp.Compare(ka.depth, kb.depth); c != 0 {
			return c
		}
		if c := cmp.Compare(ka.id, kb.id); c != 0 {
			return c
		}
		return cmp.Compare(ka.instance, kb.instance)
	})
	prio := make([]int, len(sys.Nodes))
	for rank, node := range idx {
		prio[node] = rank
	}
	return prio
}

// dropRank orders non-droppable graphs (0) before droppable ones (1).
func dropRank(g *model.TaskGraph) int64 {
	if g.Droppable() {
		return 1
	}
	return 0
}

// DefaultPolicy is deadline(rate)-monotonic with criticality tie-break:
// shorter periods outrank longer ones; at equal period non-droppable
// graphs outrank droppable ones, then upstream tasks outrank downstream
// ones, then task ID, then instance. Rate-first ordering is the standard
// choice in mixed-criticality systems — low-criticality tasks CAN delay
// high-criticality ones, which is exactly why run-time task dropping buys
// schedulability (Figure 1 of the paper).
type DefaultPolicy struct{}

// Name implements PriorityPolicy.
func (DefaultPolicy) Name() string { return "rm-crit-topo" }

// Assign implements PriorityPolicy.
func (DefaultPolicy) Assign(sys *System) []int {
	return assignByKeys(sys, func(n *Node) (int64, int64) { return int64(n.Period), dropRank(n.Graph) })
}

// CriticalityPolicy orders all non-droppable tasks above all droppable
// ones, then by period. Under this policy low-criticality tasks never
// interfere with critical ones on the same processor, so task dropping
// cannot improve critical WCRTs — provided as an ablation of the default.
type CriticalityPolicy struct{}

// Name implements PriorityPolicy.
func (CriticalityPolicy) Name() string { return "crit-rm-topo" }

// Assign implements PriorityPolicy.
func (CriticalityPolicy) Assign(sys *System) []int {
	return assignByKeys(sys, func(n *Node) (int64, int64) { return dropRank(n.Graph), int64(n.Period) })
}

// DeadlineMonotonicPolicy orders by relative deadline instead of period
// (with the same criticality/depth/ID tie-breaks). It coincides with
// DefaultPolicy when every deadline is implicit.
type DeadlineMonotonicPolicy struct{}

// Name implements PriorityPolicy.
func (DeadlineMonotonicPolicy) Name() string { return "dm-crit-topo" }

// Assign implements PriorityPolicy.
func (DeadlineMonotonicPolicy) Assign(sys *System) []int {
	return assignByKeys(sys, func(n *Node) (int64, int64) { return int64(n.Deadline), dropRank(n.Graph) })
}
