// Package model defines the system model of the paper: a heterogeneous
// MPSoC architecture (Section 2.1), periodic mixed-criticality task graphs
// with droppable/non-droppable applications, and the task-level timing and
// hardening-overhead parameters consumed by the analyses.
package model

import (
	"fmt"
	"math"
	"sort"
)

// ProcID identifies a processor within an Architecture.
type ProcID int

// InvalidProc is the zero-ish sentinel for "not mapped".
const InvalidProc ProcID = -1

// Processor models one processing element p in P: its type, leakage power
// stat_p, dynamic power dyn_p, and constant fault rate lambda_p per time
// unit (per microsecond here), as in Section 2.1.
type Processor struct {
	ID   ProcID `json:"id"`
	Name string `json:"name"`
	// Type is the processor type (type_p); tasks run only on processors,
	// but heterogeneity is expressed through Speed.
	Type string `json:"type"`
	// StaticPower is the leakage power stat_p in watts, paid whenever the
	// processor is allocated (powered on).
	StaticPower float64 `json:"static_power"`
	// DynPower is the dynamic power dyn_p in watts at 100% utilization.
	DynPower float64 `json:"dyn_power"`
	// FaultRate is lambda_p, the transient-fault rate per microsecond.
	FaultRate float64 `json:"fault_rate"`
	// Speed scales execution times: a task with nominal WCET c runs in
	// ceil(c/Speed) on this processor. Speed 0 is treated as 1.0.
	Speed float64 `json:"speed,omitempty"`
	// NonPreemptive makes the local scheduler run every job to completion
	// once started (the regime of the paper's "non-preemptive real-time
	// CORBA" DT benchmarks). The default is preemptive fixed-priority.
	NonPreemptive bool `json:"non_preemptive,omitempty"`
}

// EffectiveSpeed returns the speed factor, defaulting to 1.0.
func (p *Processor) EffectiveSpeed() float64 {
	if p.Speed <= 0 {
		return 1.0
	}
	return p.Speed
}

// ScaleExec converts a nominal execution time into the execution time on
// this processor, rounding up (worst-case safe).
func (p *Processor) ScaleExec(c Time) Time {
	s := p.EffectiveSpeed()
	if s == 1.0 || c <= 0 {
		return c
	}
	return Time(math.Ceil(float64(c) / s))
}

// ScaleExecFloor converts a nominal execution time rounding down, used for
// best-case (lower) bounds.
func (p *Processor) ScaleExecFloor(c Time) Time {
	s := p.EffectiveSpeed()
	if s == 1.0 || c <= 0 {
		return c
	}
	return Time(math.Floor(float64(c) / s))
}

// FabricKind selects the communication-fabric topology. The paper's
// system model admits "a shared bus, crossbar switch, or a network-on-
// chip" (Section 2.1); all three are supported, plus an idealized
// point-to-point network.
type FabricKind int

const (
	// FabricIdeal is a contention-free point-to-point network: every
	// message takes BaseLatency + size/Bandwidth.
	FabricIdeal FabricKind = iota
	// FabricSharedBus arbitrates all messages on one bus
	// (non-preemptive, sender-priority) in the analyses.
	FabricSharedBus
	// FabricCrossbar gives every destination processor its own input
	// port: messages contend only with other messages to the same
	// destination.
	FabricCrossbar
	// FabricMesh is an XY-routed 2D mesh: the contention-free latency
	// grows with the hop distance between the processors
	// (BaseLatency * hops + size/Bandwidth); the analyses treat links as
	// contention-free (documented approximation).
	FabricMesh
)

// String implements fmt.Stringer.
func (k FabricKind) String() string {
	switch k {
	case FabricIdeal:
		return "ideal"
	case FabricSharedBus:
		return "shared-bus"
	case FabricCrossbar:
		return "crossbar"
	case FabricMesh:
		return "mesh"
	default:
		return fmt.Sprintf("FabricKind(%d)", int(k))
	}
}

// Fabric models the on-chip communication fabric nw. Faults on links are
// assumed transparent (Section 2.1); only topology, bandwidth and latency
// are visible at system level.
type Fabric struct {
	// Kind selects the topology/contention model (default FabricIdeal;
	// the legacy Shared flag forces FabricSharedBus).
	Kind FabricKind `json:"kind,omitempty"`
	// Bandwidth is bw_nw in bytes per microsecond. Zero means infinite
	// bandwidth (communication takes only the latency term).
	Bandwidth float64 `json:"bandwidth"`
	// BaseLatency is the fixed per-message latency (per hop for meshes).
	BaseLatency Time `json:"base_latency"`
	// Shared selects the shared-bus contention model (legacy alias for
	// Kind == FabricSharedBus).
	Shared bool `json:"shared,omitempty"`
	// MeshWidth is the number of columns of the FabricMesh grid;
	// processors are placed row-major by ID. Zero picks a near-square
	// grid.
	MeshWidth int `json:"mesh_width,omitempty"`
}

// EffectiveKind resolves the legacy Shared flag.
func (f Fabric) EffectiveKind() FabricKind {
	if f.Kind == FabricIdeal && f.Shared {
		return FabricSharedBus
	}
	return f.Kind
}

// Arbitrated reports whether the analyses must model message contention
// (bus or crossbar arbitration).
func (f Fabric) Arbitrated() bool {
	k := f.EffectiveKind()
	return k == FabricSharedBus || k == FabricCrossbar
}

// MeshHops returns the XY-routing hop count between two processors on the
// mesh grid (1 for adjacent; 0 only for identical positions).
func (f Fabric) MeshHops(a, b ProcID, nProcs int) int {
	w := f.MeshWidth
	if w <= 0 {
		w = 1
		for w*w < nProcs {
			w++
		}
	}
	ax, ay := int(a)%w, int(a)/w
	bx, by := int(b)%w, int(b)/w
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// TransferTimeBetween returns the contention-free time to move size bytes
// from processor a to processor b (callers handle the same-processor
// zero-cost case). For meshes the latency term scales with the hop count.
// Like TransferTime it saturates at Infinity.
func (f Fabric) TransferTimeBetween(a, b ProcID, size int64, nProcs int) Time {
	base := f.TransferTime(size)
	if f.EffectiveKind() != FabricMesh {
		return base
	}
	hops := f.MeshHops(a, b, nProcs)
	if hops <= 1 {
		return base
	}
	extra := Time(hops - 1)
	if f.BaseLatency > (Infinity-1)/extra {
		return Infinity
	}
	return SatAdd(base, f.BaseLatency*extra)
}

// TransferTime returns the contention-free time to move size bytes across
// the fabric (zero for local, same-processor communication, which the
// caller decides). It saturates at Infinity: a transfer too slow to
// represent (a vanishing bandwidth, a huge base latency) never arrives,
// rather than wrapping around to a negative, free delay.
func (f Fabric) TransferTime(size int64) Time {
	var payload Time
	if size > 0 && f.Bandwidth > 0 {
		t := math.Ceil(float64(size) / f.Bandwidth)
		if !(t < float64(Infinity)) {
			return Infinity
		}
		payload = Time(t)
	}
	return SatAdd(f.BaseLatency, payload)
}

// Architecture is the MPSoC platform A = (P, nw).
type Architecture struct {
	Name   string      `json:"name"`
	Procs  []Processor `json:"procs"`
	Fabric Fabric      `json:"fabric"`
}

// Proc returns the processor with the given ID, or nil.
func (a *Architecture) Proc(id ProcID) *Processor {
	if i := a.ProcIndex(id); i >= 0 {
		return &a.Procs[i]
	}
	return nil
}

// ProcIndex returns the index in Procs of the processor with the given
// ID, or -1.
func (a *Architecture) ProcIndex(id ProcID) int {
	for i := range a.Procs {
		if a.Procs[i].ID == id {
			return i
		}
	}
	return -1
}

// ProcIDs returns all processor IDs in declaration order.
func (a *Architecture) ProcIDs() []ProcID {
	ids := make([]ProcID, len(a.Procs))
	for i := range a.Procs {
		ids[i] = a.Procs[i].ID
	}
	return ids
}

// TaskKind distinguishes original tasks from the artifacts introduced by
// the hardening transformation (Section 2.2).
type TaskKind int

const (
	// KindRegular is an application task from the original specification.
	KindRegular TaskKind = iota
	// KindReplica is a clone introduced by active or passive replication.
	KindReplica
	// KindVoter is a majority voter inserted by replication.
	KindVoter
	// KindDispatch is the zero-time invocation step inserted by passive
	// replication: it sits on the voter's processor and signals the
	// passive replicas, so the analyses see the true invocation route
	// (active results -> voter's processor -> passive replica).
	KindDispatch
)

// String implements fmt.Stringer.
func (k TaskKind) String() string {
	switch k {
	case KindRegular:
		return "regular"
	case KindReplica:
		return "replica"
	case KindVoter:
		return "voter"
	case KindDispatch:
		return "dispatch"
	default:
		return fmt.Sprintf("TaskKind(%d)", int(k))
	}
}

// TaskID uniquely identifies a task across an application set. IDs are of
// the form "graph/task", with replication suffixes such as "#r1" or "#vote"
// appended by the hardening transformation.
type TaskID string

// MakeTaskID builds the canonical task ID.
func MakeTaskID(graph, task string) TaskID {
	return TaskID(graph + "/" + task)
}

// Task is one task v in V_t, characterized by (bcet_v, wcet_v, ve_v, dt_v)
// per Section 2.1, plus provenance metadata maintained by the hardening
// transformation.
type Task struct {
	ID   TaskID `json:"id"`
	Name string `json:"name"`
	// BCET and WCET are the best/worst-case execution times of a single
	// (fault-free, overhead-free) execution.
	BCET Time `json:"bcet"`
	WCET Time `json:"wcet"`
	// VoteOverhead is ve_v, the execution time of a majority voter for
	// this task's replicas.
	VoteOverhead Time `json:"vote_overhead"`
	// DetectOverhead is dt_v: fault detection, context store/restore and
	// roll-back overhead for re-execution.
	DetectOverhead Time `json:"detect_overhead"`

	// Kind, Passive, ReExec and Origin describe the hardening state.
	Kind TaskKind `json:"kind,omitempty"`
	// Passive marks a passive replica: it executes only when the voter
	// requests a tie-break.
	Passive bool `json:"passive,omitempty"`
	// ReExec is k, the maximum number of re-executions (0 = not hardened
	// by re-execution).
	ReExec int `json:"reexec,omitempty"`
	// Origin is the ID of the original task for replicas and voters.
	Origin TaskID `json:"origin,omitempty"`
	// AllowedTypes restricts the processor types this task may map to
	// (type_p heterogeneity, Section 2.1). Empty means any type.
	AllowedTypes []string `json:"allowed_types,omitempty"`
}

// ReExecutable reports whether the task is hardened by re-execution.
func (v *Task) ReExecutable() bool { return v.ReExec > 0 }

// CanRunOn reports whether the task may be mapped to a processor of the
// given type.
func (v *Task) CanRunOn(procType string) bool {
	if len(v.AllowedTypes) == 0 {
		return true
	}
	for _, t := range v.AllowedTypes {
		if t == procType {
			return true
		}
	}
	return false
}

// NominalWCET is the worst-case execution time of one fault-free execution
// including the detection overhead paid by re-executable tasks
// (k = 0 case of Eq. 1).
func (v *Task) NominalWCET() Time {
	if v.ReExecutable() {
		return v.WCET + v.DetectOverhead
	}
	return v.WCET
}

// NominalBCET mirrors NominalWCET for the best case.
func (v *Task) NominalBCET() Time {
	if v.ReExecutable() {
		return v.BCET + v.DetectOverhead
	}
	return v.BCET
}

// HardenedWCET is Eq. (1): wcet' = (wcet + dt) * (k+1), the worst-case
// execution time when the task is maximally re-executed.
func (v *Task) HardenedWCET() Time {
	if !v.ReExecutable() {
		return v.NominalWCET()
	}
	return (v.WCET + v.DetectOverhead) * Time(v.ReExec+1)
}

// Channel is a directed data dependency e = (src_e, dst_e) with transfer
// size s_e bytes.
type Channel struct {
	Src  TaskID `json:"src"`
	Dst  TaskID `json:"dst"`
	Size int64  `json:"size"`
}

// NonDroppableService is the sv value (+inf conceptually) assigned to
// non-droppable graphs; they can never be dropped.
const NonDroppableService = math.MaxFloat64

// TaskGraph is one application t = (V_t, E_t, pr_t, f_t, sv_t): a set of
// tasks and channels released every Period, with either a reliability
// constraint (non-droppable) or a service value (droppable).
type TaskGraph struct {
	Name string `json:"name"`
	// Period is the invocation period pr_t.
	Period Time `json:"period"`
	// Deadline is the relative deadline; zero means implicit (== Period).
	Deadline Time `json:"deadline,omitempty"`
	// ReliabilityBound is f_t, the maximum allowable failures per
	// microsecond for non-droppable graphs. A negative value marks the
	// graph as droppable (the paper encodes this as f_t = -1).
	ReliabilityBound float64 `json:"reliability_bound"`
	// Service is sv_t, the relative importance of a droppable graph's
	// service. For non-droppable graphs it is conceptually infinite and
	// ignored.
	Service float64 `json:"service,omitempty"`

	Tasks    []*Task    `json:"tasks"`
	Channels []*Channel `json:"channels"`

	index map[TaskID]*Task
}

// NewTaskGraph creates an empty task graph with the given name and period.
// ReliabilityBound defaults to droppable (-1); call SetCritical or
// SetService to classify the graph.
func NewTaskGraph(name string, period Time) *TaskGraph {
	return &TaskGraph{
		Name:             name,
		Period:           period,
		ReliabilityBound: -1,
		index:            make(map[TaskID]*Task),
	}
}

// SetCritical marks the graph non-droppable with the given reliability
// constraint f_t (maximum allowable failures per microsecond) and returns
// the graph for chaining.
func (g *TaskGraph) SetCritical(ft float64) *TaskGraph {
	if ft <= 0 {
		panic("model: SetCritical requires a positive reliability bound")
	}
	g.ReliabilityBound = ft
	g.Service = 0
	return g
}

// SetService marks the graph droppable with relative service value sv and
// returns the graph for chaining.
func (g *TaskGraph) SetService(sv float64) *TaskGraph {
	g.ReliabilityBound = -1
	g.Service = sv
	return g
}

// Droppable reports whether the graph may be dropped in the critical mode
// (f_t < 0 in the paper's encoding).
func (g *TaskGraph) Droppable() bool { return g.ReliabilityBound < 0 }

// EffectiveDeadline returns the relative deadline, defaulting to the
// period.
func (g *TaskGraph) EffectiveDeadline() Time {
	if g.Deadline > 0 {
		return g.Deadline
	}
	return g.Period
}

// EffectiveService returns sv_t for QoS accounting: the configured value
// for droppable graphs and NonDroppableService otherwise.
func (g *TaskGraph) EffectiveService() float64 {
	if g.Droppable() {
		return g.Service
	}
	return NonDroppableService
}

// AddTask appends a task with the given local name and timing parameters
// (bcet, wcet, ve, dt) and returns it. The task ID is "graph/name".
func (g *TaskGraph) AddTask(name string, bcet, wcet, ve, dt Time) *Task {
	t := &Task{
		ID:             MakeTaskID(g.Name, name),
		Name:           name,
		BCET:           bcet,
		WCET:           wcet,
		VoteOverhead:   ve,
		DetectOverhead: dt,
		Kind:           KindRegular,
	}
	g.attach(t)
	return t
}

// attach inserts a fully-formed task, panicking on duplicate IDs.
func (g *TaskGraph) attach(t *Task) {
	if g.index == nil {
		g.rebuildIndex()
	}
	if _, dup := g.index[t.ID]; dup {
		panic(fmt.Sprintf("model: duplicate task %q in graph %q", t.ID, g.Name))
	}
	g.Tasks = append(g.Tasks, t)
	g.index[t.ID] = t
}

// AddChannel appends a channel between two local task names with the given
// transfer size in bytes.
func (g *TaskGraph) AddChannel(src, dst string, size int64) *Channel {
	return g.AddChannelID(MakeTaskID(g.Name, src), MakeTaskID(g.Name, dst), size)
}

// AddChannelID appends a channel between two task IDs.
func (g *TaskGraph) AddChannelID(src, dst TaskID, size int64) *Channel {
	c := &Channel{Src: src, Dst: dst, Size: size}
	g.Channels = append(g.Channels, c)
	return c
}

// Task returns the task with the given ID, or nil.
func (g *TaskGraph) Task(id TaskID) *Task {
	if g.index == nil || len(g.index) != len(g.Tasks) {
		g.rebuildIndex()
	}
	return g.index[id]
}

// TaskByName returns the task with the given local name, or nil.
func (g *TaskGraph) TaskByName(name string) *Task {
	return g.Task(MakeTaskID(g.Name, name))
}

// RebuildIndex recomputes the internal ID index after direct mutation of
// the Tasks slice (used by the hardening transformation).
func (g *TaskGraph) RebuildIndex() { g.rebuildIndex() }

func (g *TaskGraph) rebuildIndex() {
	g.index = make(map[TaskID]*Task, len(g.Tasks))
	for _, t := range g.Tasks {
		g.index[t.ID] = t
	}
}

// Preds returns the predecessor tasks of id in channel order.
func (g *TaskGraph) Preds(id TaskID) []*Task {
	var out []*Task
	for _, c := range g.Channels {
		if c.Dst == id {
			if t := g.Task(c.Src); t != nil {
				out = append(out, t)
			}
		}
	}
	return out
}

// Succs returns the successor tasks of id in channel order.
func (g *TaskGraph) Succs(id TaskID) []*Task {
	var out []*Task
	for _, c := range g.Channels {
		if c.Src == id {
			if t := g.Task(c.Dst); t != nil {
				out = append(out, t)
			}
		}
	}
	return out
}

// InChannels returns the channels entering id.
func (g *TaskGraph) InChannels(id TaskID) []*Channel {
	var out []*Channel
	for _, c := range g.Channels {
		if c.Dst == id {
			out = append(out, c)
		}
	}
	return out
}

// OutChannels returns the channels leaving id.
func (g *TaskGraph) OutChannels(id TaskID) []*Channel {
	var out []*Channel
	for _, c := range g.Channels {
		if c.Src == id {
			out = append(out, c)
		}
	}
	return out
}

// Clone returns a deep copy of the graph. The copy shares no mutable state
// with the original, so hardening can transform it freely.
func (g *TaskGraph) Clone() *TaskGraph {
	ng := g.EmptyCopy()
	ng.index = make(map[TaskID]*Task, len(g.Tasks))
	for _, t := range g.Tasks {
		ct := *t
		ct.AllowedTypes = append([]string(nil), t.AllowedTypes...)
		ng.Tasks = append(ng.Tasks, &ct)
		ng.index[ct.ID] = &ct
	}
	for _, c := range g.Channels {
		cc := *c
		ng.Channels = append(ng.Channels, &cc)
	}
	return &ng
}

// EmptyCopy returns the graph's parameters — name, period, deadline,
// reliability bound and service — without its tasks and channels.
func (g *TaskGraph) EmptyCopy() TaskGraph {
	return TaskGraph{Name: g.Name, Period: g.Period, Deadline: g.Deadline,
		ReliabilityBound: g.ReliabilityBound, Service: g.Service}
}

// AppSet is the application set T sharing the platform.
type AppSet struct {
	Graphs []*TaskGraph `json:"graphs"`
}

// NewAppSet builds an application set from the given graphs.
func NewAppSet(graphs ...*TaskGraph) *AppSet {
	return &AppSet{Graphs: graphs}
}

// Graph returns the graph with the given name, or nil.
func (s *AppSet) Graph(name string) *TaskGraph {
	for _, g := range s.Graphs {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// GraphOf returns the graph owning the given task ID, or nil.
func (s *AppSet) GraphOf(id TaskID) *TaskGraph {
	for _, g := range s.Graphs {
		if g.Task(id) != nil {
			return g
		}
	}
	return nil
}

// AllTasks returns every task of every graph, graph order preserved.
func (s *AppSet) AllTasks() []*Task {
	var out []*Task
	for _, g := range s.Graphs {
		out = append(out, g.Tasks...)
	}
	return out
}

// NumTasks returns the total number of tasks in the set.
func (s *AppSet) NumTasks() int {
	n := 0
	for _, g := range s.Graphs {
		n += len(g.Tasks)
	}
	return n
}

// DroppableNames returns the names of all droppable graphs, sorted.
func (s *AppSet) DroppableNames() []string {
	var out []string
	for _, g := range s.Graphs {
		if g.Droppable() {
			out = append(out, g.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Hyperperiod returns the least common multiple of all graph periods.
func (s *AppSet) Hyperperiod() (Time, error) {
	if len(s.Graphs) == 0 {
		return 0, fmt.Errorf("model: empty application set")
	}
	h := Time(1)
	for _, g := range s.Graphs {
		var err error
		h, err = LCM(h, g.Period)
		if err != nil {
			return 0, fmt.Errorf("model: hyperperiod: %w", err)
		}
	}
	return h, nil
}

// Clone deep-copies the application set.
func (s *AppSet) Clone() *AppSet {
	ns := &AppSet{Graphs: make([]*TaskGraph, len(s.Graphs))}
	for i, g := range s.Graphs {
		ns.Graphs[i] = g.Clone()
	}
	return ns
}

// Mapping assigns tasks to processors (map: V -> P, Section 2.3).
type Mapping map[TaskID]ProcID

// Clone copies the mapping.
func (m Mapping) Clone() Mapping {
	nm := make(Mapping, len(m))
	for k, v := range m {
		nm[k] = v
	}
	return nm
}

// ProcOf returns the processor of a task, or InvalidProc when unmapped.
func (m Mapping) ProcOf(id TaskID) ProcID {
	if p, ok := m[id]; ok {
		return p
	}
	return InvalidProc
}

// UsedProcs returns the set of processors that host at least one task.
func (m Mapping) UsedProcs() map[ProcID]bool {
	out := make(map[ProcID]bool)
	for _, p := range m {
		out[p] = true
	}
	return out
}
