package sched

import (
	"sync"

	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// This file holds the columnar lowering of a compiled platform: a
// CompiledSystem packs everything the holistic fixed point reads per job
// into contiguous structure-of-arrays tables — static job attributes,
// CSR edge lists, the kernel peer segments of kernel.go flattened to
// int32 indices over shared backing arrays, and the per-processor
// admission partitions. The analysis hot path (see compiled_analysis.go)
// then runs entirely over dense integer indices: no *platform.Node
// dereferences, no map lookups, no per-edge struct loads.
//
// A CompiledSystem is IMMUTABLE after CompileSystem returns. Every
// Analyze of the same system — the fault-free pass and all fault
// scenarios of Algorithm 1, and every batched candidate vector of
// core.AnalyzeBatch — reads one shared instance
// concurrently, so any mutation would race and corrupt sibling analyses.
// The compiledwrite linter (internal/lint) enforces that only this file
// writes to CompiledSystem backing arrays.

// CompiledSystem is the structure-of-arrays lowering of one
// *platform.System. All per-node columns are indexed by platform.NodeID;
// all segment tables are CSR-style: seg[off[i]:off[i+1]] lists node i's
// entries.
type CompiledSystem struct {
	// Sys is the source system. Holding it pins the pointer, which makes
	// identity-keyed caches of compiled tables safe: a live entry's key
	// can never be recycled for a different system.
	Sys *platform.System

	// N is the node (job) count; NProcs the processor count.
	N      int
	NProcs int
	// Hyperperiod bounds the busy-window divergence check (limit = 4H).
	Hyperperiod model.Time
	// Arbitrated marks shared-fabric systems; the compiled kernel does
	// not model bus arbitration and delegates those to the pointer path.
	Arbitrated bool

	// ---- Static per-job attribute columns -------------------------------
	Release       []model.Time
	AbsDeadline   []model.Time
	Period        []model.Time
	Priority      []int32
	Proc          []int32
	NonPreemptive []bool
	// NominalB/NominalW/HardenedW are the execution-time columns (the
	// fault-free [bcet, wcet] including detection overheads, and the
	// Eq. (1) re-execution inflation); Passive/ReExec/Droppable are the
	// hardening and criticality bits. The analysis itself takes explicit
	// exec vectors, but batch callers derive their candidate vectors from
	// these columns without touching the pointer graph.
	NominalB  []model.Time
	NominalW  []model.Time
	HardenedW []model.Time
	Passive   []bool
	ReExec    []bool
	Droppable []bool

	// Order is the fixed-point sweep order: graph-major, topological per
	// instance — exactly the iteration order of the pointer path's nested
	// GraphNodes loops, so sweep trajectories match verbatim.
	Order []int32

	// ---- CSR edge lists -------------------------------------------------
	// In-edges carry the mapped communication delay next to the source id
	// (two parallel streams instead of one []platform.Edge of 32-byte
	// structs).
	InOff   []int32
	InFrom  []int32
	InDelay []model.Time
	OutOff  []int32
	OutTo   []int32

	// ---- Kernel peer segments (see kernel.go for the set definitions) ---
	InterfOff []int32
	Interf    []int32
	BlockOff  []int32
	Block     []int32
	DemandOff []int32
	Demand    []int32
	// Readers lists, per job, every job whose holistic equations read
	// this job's bounds: graph successors (activation), lower-priority
	// same-processor peers (interference, exclusion tests) and, on
	// non-preemptive processors, all peers (the blocking term reads
	// lower-priority finishes). Phase D sweeps the closure of the lifted
	// nodes along exactly these edges (see liftClosure).
	ReadersOff []int32
	Readers    []int32

	// WReaders is the reverse adjacency of the interference and blocking
	// segments: WReaders[i] lists every node whose busy-window inputs
	// include node i's worst-case finish. All such readers share i's
	// processor. The worst-case sweeps use it to invalidate exactly the
	// peers an accepted finish change can affect, instead of waking the
	// whole processor by priority watermark.
	WReadersOff []int32
	WReaders    []int32

	// ---- Per-processor admission partitions -----------------------------
	// ProcList[ProcOff[p]:ProcOff[p+1]] lists processor p's resident jobs
	// in ascending priority value (most urgent first), mirroring
	// platform.System.ProcNodes.
	ProcOff  []int32
	ProcList []int32
}

// NominalExec builds the fault-free execution intervals from the compiled
// columns — the columnar equivalent of sched.NominalExec.
func (cs *CompiledSystem) NominalExec() []ExecBounds {
	out := make([]ExecBounds, cs.N)
	for i := range out {
		out[i] = ExecBounds{B: cs.NominalB[i], W: cs.NominalW[i]}
	}
	return out
}

// CompileSystem lowers a compiled platform into its columnar form. The
// result is immutable and safe for unbounded concurrent use; callers
// should cache it per system (see Holistic.CompiledFor) — the build is
// O(nodes + edges + peer segments), far cheaper than one analysis, but
// Algorithm 1 invokes the backend once per fault scenario.
func CompileSystem(sys *platform.System) *CompiledSystem {
	n := len(sys.Nodes)
	cs := &CompiledSystem{
		Sys:         sys,
		N:           n,
		NProcs:      len(sys.Arch.Procs),
		Hyperperiod: sys.Hyperperiod,
		Arbitrated:  sys.Arch.Fabric.Arbitrated(),

		Release:       make([]model.Time, n),
		AbsDeadline:   make([]model.Time, n),
		Period:        make([]model.Time, n),
		Priority:      make([]int32, n),
		Proc:          make([]int32, n),
		NonPreemptive: make([]bool, n),
		NominalB:      make([]model.Time, n),
		NominalW:      make([]model.Time, n),
		HardenedW:     make([]model.Time, n),
		Passive:       make([]bool, n),
		ReExec:        make([]bool, n),
		Droppable:     make([]bool, n),

		Order: make([]int32, 0, n),

		InOff:      make([]int32, n+1),
		OutOff:     make([]int32, n+1),
		InterfOff:  make([]int32, n+1),
		BlockOff:   make([]int32, n+1),
		DemandOff:  make([]int32, n+1),
		ReadersOff: make([]int32, n+1),
	}

	edges := 0
	for i := range sys.Nodes {
		nd := sys.Nodes[i]
		cs.Release[i] = nd.Release
		cs.AbsDeadline[i] = nd.AbsDeadline
		cs.Period[i] = nd.Period
		cs.Priority[i] = int32(nd.Priority)
		cs.Proc[i] = int32(nd.Proc)
		cs.NonPreemptive[i] = nd.NonPreemptive
		cs.NominalB[i] = nd.NominalBCET()
		cs.NominalW[i] = nd.NominalWCET()
		cs.HardenedW[i] = nd.HardenedWCET()
		cs.Passive[i] = nd.Task.Passive
		cs.ReExec[i] = nd.Task.ReExecutable()
		cs.Droppable[i] = nd.Graph.Droppable()
		edges += len(nd.In)
	}

	cs.InFrom = make([]int32, 0, edges)
	cs.InDelay = make([]model.Time, 0, edges)
	cs.OutTo = make([]int32, 0, edges)
	for i := range sys.Nodes {
		nd := sys.Nodes[i]
		cs.InOff[i] = int32(len(cs.InFrom))
		for _, e := range nd.In {
			cs.InFrom = append(cs.InFrom, int32(e.From))
			cs.InDelay = append(cs.InDelay, e.Delay)
		}
		cs.OutOff[i] = int32(len(cs.OutTo))
		for _, e := range nd.Out {
			cs.OutTo = append(cs.OutTo, int32(e.To))
		}
	}
	cs.InOff[n] = int32(len(cs.InFrom))
	cs.OutOff[n] = int32(len(cs.OutTo))

	// Sweep order: flatten the pointer path's graph-major topological
	// iteration.
	for gi := range sys.GraphNodes {
		for _, nid := range sys.GraphNodes[gi] {
			cs.Order = append(cs.Order, int32(nid))
		}
	}

	// Per-processor admission partitions, priority-sorted like ProcNodes.
	cs.ProcOff = make([]int32, cs.NProcs+1)
	total := 0
	for p := 0; p < cs.NProcs; p++ {
		total += len(sys.ProcNodes[model.ProcID(p)])
	}
	cs.ProcList = make([]int32, 0, total)
	for p := 0; p < cs.NProcs; p++ {
		cs.ProcOff[p] = int32(len(cs.ProcList))
		for _, pid := range sys.ProcNodes[model.ProcID(p)] {
			cs.ProcList = append(cs.ProcList, int32(pid))
		}
	}
	cs.ProcOff[cs.NProcs] = int32(len(cs.ProcList))

	// Kernel peer segments: the same sets kernel.go derives per system,
	// emitted straight into int32 CSR tables (see kernel.go build for the
	// exclusion rationale), plus the reader segments.
	for i := 0; i < n; i++ {
		cs.InterfOff[i] = int32(len(cs.Interf))
		cs.BlockOff[i] = int32(len(cs.Block))
		cs.DemandOff[i] = int32(len(cs.Demand))
		cs.ReadersOff[i] = int32(len(cs.Readers))
		node := sys.Nodes[i]
		id := platform.NodeID(i)
		for _, e := range node.Out {
			cs.Readers = append(cs.Readers, int32(e.To))
		}
		for _, pid := range sys.ProcNodes[node.Proc] {
			if pid != id && (node.NonPreemptive || sys.Nodes[pid].Priority > node.Priority) {
				cs.Readers = append(cs.Readers, int32(pid))
			}
		}
		for _, pid := range sys.ProcNodes[node.Proc] {
			p := sys.Nodes[pid]
			if p.Priority >= node.Priority {
				if !node.NonPreemptive {
					break // peers are priority-sorted: nothing left
				}
				if pid == id || p.Priority == node.Priority {
					continue
				}
				if sys.IsAncestor(pid, id) || sys.IsAncestor(id, pid) {
					continue
				}
				cs.Block = append(cs.Block, int32(pid))
				continue
			}
			cs.Demand = append(cs.Demand, int32(pid))
			if sys.IsAncestor(pid, id) {
				continue
			}
			cs.Interf = append(cs.Interf, int32(pid))
		}
	}
	cs.InterfOff[n] = int32(len(cs.Interf))
	cs.BlockOff[n] = int32(len(cs.Block))
	cs.DemandOff[n] = int32(len(cs.Demand))
	cs.ReadersOff[n] = int32(len(cs.Readers))

	// Window readers: invert interference and blocking in two counting
	// passes (degree histogram, then placement off a sliding cursor).
	cs.WReadersOff = make([]int32, n+1)
	deg := make([]int32, n)
	for i := 0; i < n; i++ {
		for e := cs.InterfOff[i]; e < cs.InterfOff[i+1]; e++ {
			deg[cs.Interf[e]]++
		}
		for e := cs.BlockOff[i]; e < cs.BlockOff[i+1]; e++ {
			deg[cs.Block[e]]++
		}
	}
	var wtotal int32
	for i := 0; i < n; i++ {
		cs.WReadersOff[i] = wtotal
		wtotal += deg[i]
	}
	cs.WReadersOff[n] = wtotal
	cs.WReaders = make([]int32, wtotal)
	cursor := deg // reuse as next-free-slot cursor
	copy(cursor, cs.WReadersOff[:n])
	for i := 0; i < n; i++ {
		for e := cs.InterfOff[i]; e < cs.InterfOff[i+1]; e++ {
			p := cs.Interf[e]
			cs.WReaders[cursor[p]] = int32(i)
			cursor[p]++
		}
		for e := cs.BlockOff[i]; e < cs.BlockOff[i+1]; e++ {
			p := cs.Block[e]
			cs.WReaders[cursor[p]] = int32(i)
			cursor[p]++
		}
	}

	return cs
}

// compiledTables is the per-backend cache of lowered systems, keyed by
// system identity. Identity keying is sound because every cached
// CompiledSystem pins its source system (see CompiledSystem.Sys), so a
// live key can never be recycled for a different allocation; it is also
// the right key, because the tables embed mapping-dependent data (the
// processor columns, edge delays, peer segments), which rules out
// sharing them between mappings of one structure. Bounded by a
// FIFO of compiledTablesCap entries — the working set is one system per
// concurrently evaluated candidate.
type compiledTables struct {
	mu   sync.Mutex
	m    map[*platform.System]*CompiledSystem
	fifo []*platform.System
}

const compiledTablesCap = 64

// CompiledFor returns the cached columnar lowering of sys, compiling it
// on first use. Safe for concurrent use; a lost insertion race costs one
// redundant compile, never an inconsistent table.
func (h *Holistic) CompiledFor(sys *platform.System) *CompiledSystem {
	t := &h.compiled
	t.mu.Lock()
	if cs, ok := t.m[sys]; ok {
		t.mu.Unlock()
		return cs
	}
	t.mu.Unlock()

	cs := CompileSystem(sys)

	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.m[sys]; ok {
		return prev
	}
	if t.m == nil {
		t.m = make(map[*platform.System]*CompiledSystem, compiledTablesCap)
	}
	if len(t.fifo) >= compiledTablesCap {
		evicted := t.fifo[0]
		copy(t.fifo, t.fifo[1:])
		t.fifo = t.fifo[:len(t.fifo)-1]
		delete(t.m, evicted)
	}
	t.m[sys] = cs
	t.fifo = append(t.fifo, sys)
	return cs
}
