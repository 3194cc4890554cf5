// Package hardening implements the fault-tolerance transformations of
// Section 2.2: re-execution (Eq. 1), active replication and passive
// replication with majority voters. Applying a Plan to an application set
// produces the modified application set T' of Section 2.3 together with a
// Manifest that records the provenance of every introduced task.
package hardening

import (
	"fmt"
	"slices"
	"sort"

	"mcmap/internal/model"
)

// Technique enumerates the hardening techniques of Section 2.2.
type Technique int

const (
	// None leaves the task unhardened.
	None Technique = iota
	// ReExecution re-runs the task locally up to K times after detected
	// faults; the task graph topology is unchanged and the WCET becomes
	// Eq. (1).
	ReExecution
	// ActiveReplication always executes Replicas clones on different
	// processors and majority-votes their results.
	ActiveReplication
	// PassiveReplication executes two clones proactively; the remaining
	// Replicas-2 passive clones are instantiated only when the voter
	// detects a mismatch.
	PassiveReplication
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case None:
		return "none"
	case ReExecution:
		return "re-execution"
	case ActiveReplication:
		return "active-replication"
	case PassiveReplication:
		return "passive-replication"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// ActiveBase is the number of proactively executed replicas in the passive
// scheme (Figure 2(b): v_{*,0} and v_{*,1}).
const ActiveBase = 2

// Decision is the hardening choice for one task.
type Decision struct {
	Technique Technique `json:"technique"`
	// K is the maximum number of re-executions (ReExecution only).
	K int `json:"k,omitempty"`
	// Replicas is the total number of clones (replication only). For
	// PassiveReplication the first ActiveBase clones are active and the
	// rest are passive.
	Replicas int `json:"replicas,omitempty"`
}

// replicates reports whether the decision replaces the task by replicas
// and a voter.
func (d Decision) replicates() bool {
	return d.Technique == ActiveReplication || d.Technique == PassiveReplication
}

// Validate checks internal consistency of the decision.
func (d Decision) Validate() error {
	switch d.Technique {
	case None:
		if d.K != 0 || d.Replicas != 0 {
			return fmt.Errorf("hardening: technique none with parameters K=%d Replicas=%d", d.K, d.Replicas)
		}
	case ReExecution:
		if d.K < 1 {
			return fmt.Errorf("hardening: re-execution needs K >= 1, got %d", d.K)
		}
	case ActiveReplication:
		if d.Replicas < 2 {
			return fmt.Errorf("hardening: active replication needs >= 2 replicas, got %d", d.Replicas)
		}
	case PassiveReplication:
		if d.Replicas < ActiveBase+1 {
			return fmt.Errorf("hardening: passive replication needs >= %d replicas, got %d", ActiveBase+1, d.Replicas)
		}
	default:
		return fmt.Errorf("hardening: unknown technique %d", int(d.Technique))
	}
	return nil
}

// Plan assigns a hardening decision to (a subset of) the original tasks;
// absent tasks are left unhardened.
type Plan map[model.TaskID]Decision

// Clone copies the plan.
func (p Plan) Clone() Plan {
	np := make(Plan, len(p))
	for k, v := range p {
		np[k] = v
	}
	return np
}

// Validate checks every decision in the plan.
func (p Plan) Validate() error {
	for id, d := range p {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("%v (task %q)", err, id)
		}
	}
	return nil
}

// Manifest records how the original application set was transformed.
type Manifest struct {
	// Apps is the hardened application set T'.
	Apps *model.AppSet
	// Plan is the plan that produced it.
	Plan Plan
	// Instances maps each original task ID to the IDs that implement it in
	// T': the task itself when unreplicated, or its replica IDs.
	Instances map[model.TaskID][]model.TaskID
	// Voter maps each replicated original task to its voter ID.
	Voter map[model.TaskID]model.TaskID
	// Dispatch maps each passively replicated original task to its
	// dispatch-step ID.
	Dispatch map[model.TaskID]model.TaskID
	// Origin maps every task in T' back to its original task ID (identity
	// for unhardened tasks).
	Origin map[model.TaskID]model.TaskID
}

// ReplicaID returns the canonical ID of the i-th replica of a task.
func ReplicaID(orig model.TaskID, i int) model.TaskID {
	return model.TaskID(fmt.Sprintf("%s#r%d", orig, i))
}

// VoterID returns the canonical ID of the voter of a replicated task.
func VoterID(orig model.TaskID) model.TaskID {
	return model.TaskID(string(orig) + "#v")
}

// DispatchID returns the canonical ID of the passive-invocation dispatch
// step of a passively replicated task.
func DispatchID(orig model.TaskID) model.TaskID {
	return model.TaskID(string(orig) + "#d")
}

// Role says which part of a task's hardened implementation a slot is.
type Role uint8

const (
	// Self is the task itself: unhardened or re-executed.
	Self Role = iota
	// Replica is one clone of a replicated task.
	Replica
	// Voter is the majority voter of a replicated task.
	Voter
	// Dispatch is the passive-invocation step of a passively replicated
	// task.
	Dispatch
)

// Slot is one task of a hardened graph in index form: the position of
// the original task it implements, in declaration order, and its role;
// Replica numbers replica slots.
type Slot struct {
	Task    int
	Role    Role
	Replica int
}

// Transform is the hardening transformation of one graph in index form.
// The graph has n tasks in declaration order, links are its channels,
// and dec[i] is the (valid) decision for task i. It returns the hardened
// graph's tasks as slots in declaration order and its channels as links
// between slot positions, in channel order. When no task is replicated
// the links returned are links itself.
//
// Replication works task by task in declaration order, on the graph as
// earlier replications left it (Figure 2): the task's replicas and voter
// are appended to the tasks and the task is removed, together with every
// channel touching it; then every channel that entered it is re-created
// into each replica, each replica feeds the voter with the task's
// largest outgoing transfer, and the voter takes over the task's
// outgoing channels. Passive replication appends a zero-time dispatch
// step that receives the active replicas' results and invokes the
// passive ones. Re-execution changes no structure.
func Transform(n int, links []model.Link, dec []Decision) ([]Slot, []model.Link) {
	var x Transformer
	return x.Transform(n, links, dec)
}

// Transformer runs Transform in recycled memory: the slots and links
// its Transform returns are the Transformer's own and live until its
// next call. The zero value is ready; a Transformer is not safe for
// concurrent use.
type Transformer struct {
	slots        []Slot
	cur, in, out []model.Link
	at           []int
}

// Transform is the package-level Transform writing into x's memory.
func (x *Transformer) Transform(n int, links []model.Link, dec []Decision) ([]Slot, []model.Link) {
	extra := 0
	for _, d := range dec {
		if d.replicates() {
			extra += d.Replicas + 2 // voter and, if passive, dispatch step
		}
	}
	slots := slices.Grow(x.slots[:0], n+extra)[:n]
	x.slots = slots
	for i := range slots {
		slots[i] = Slot{Task: i}
	}
	if extra == 0 {
		return slots, links
	}
	// While replicating, a slot is named by its index in slots: the
	// originals keep 0..n-1 and every artifact is appended.
	cur := append(x.cur[:0], links...)
	in, out := x.in, x.out
	for t, d := range dec {
		if !d.replicates() {
			continue
		}
		in, out = in[:0], out[:0]
		var resultSize int64
		for _, l := range cur {
			if l.Src == t {
				out = append(out, l)
				resultSize = max(resultSize, l.Size)
			}
			if l.Dst == t {
				in = append(in, l)
			}
		}
		first := len(slots)
		for r := 0; r < d.Replicas; r++ {
			slots = append(slots, Slot{Task: t, Role: Replica, Replica: r})
		}
		voter := len(slots)
		slots = append(slots, Slot{Task: t, Role: Voter})
		cur = slices.DeleteFunc(cur, func(l model.Link) bool { return l.Src == t || l.Dst == t })
		for _, l := range in {
			for r := 0; r < d.Replicas; r++ {
				cur = append(cur, model.Link{Src: l.Src, Dst: first + r, Size: l.Size})
			}
		}
		for r := 0; r < d.Replicas; r++ {
			cur = append(cur, model.Link{Src: first + r, Dst: voter, Size: resultSize})
		}
		for _, l := range out {
			cur = append(cur, model.Link{Src: voter, Dst: l.Dst, Size: l.Size})
		}
		if d.Technique == PassiveReplication {
			dispatch := len(slots)
			slots = append(slots, Slot{Task: t, Role: Dispatch})
			for a := 0; a < ActiveBase; a++ {
				cur = append(cur, model.Link{Src: first + a, Dst: dispatch, Size: resultSize})
			}
			for r := ActiveBase; r < d.Replicas; r++ {
				cur = append(cur, model.Link{Src: dispatch, Dst: first + r})
			}
		}
	}
	// Drop the replicated originals: the rest keep their order and the
	// artifacts follow in the order they were appended. A dropped
	// original's entry of at is never read, as no link touches it.
	at := slices.Grow(x.at[:0], len(slots))[:len(slots)]
	kept := slots[:0]
	for k, s := range slots {
		if s.Role == Self && dec[k].replicates() {
			continue
		}
		at[k] = len(kept)
		kept = append(kept, s)
	}
	for i := range cur {
		cur[i].Src, cur[i].Dst = at[cur[i].Src], at[cur[i].Dst]
	}
	x.cur, x.in, x.out, x.at = cur, in, out, at
	return kept, cur
}

// Instantiate returns a new task implementing slot s of the original
// task t under decision d: a copy of t (with d.K re-executions under
// ReExecution), replica s.Replica (passive from ActiveBase on under
// PassiveReplication), the voter, whose execution time is the voting
// overhead ve_v, or the zero-time dispatch step.
func Instantiate(t *model.Task, s Slot, d Decision) *model.Task {
	switch s.Role {
	case Replica:
		r := *t // copy timing parameters
		r.ID = ReplicaID(t.ID, s.Replica)
		r.Name = fmt.Sprintf("%s#r%d", t.Name, s.Replica)
		r.Kind = model.KindReplica
		r.Origin = t.ID
		r.Passive = d.Technique == PassiveReplication && s.Replica >= ActiveBase
		r.ReExec = 0
		r.AllowedTypes = append([]string(nil), t.AllowedTypes...)
		return &r
	case Voter:
		return &model.Task{ID: VoterID(t.ID), Name: t.Name + "#v", BCET: t.VoteOverhead, WCET: t.VoteOverhead,
			Kind: model.KindVoter, Origin: t.ID}
	case Dispatch:
		return &model.Task{ID: DispatchID(t.ID), Name: t.Name + "#d", Kind: model.KindDispatch, Origin: t.ID}
	default:
		c := *t
		c.AllowedTypes = append([]string(nil), t.AllowedTypes...)
		if d.Technique == ReExecution {
			c.ReExec = d.K
		}
		return &c
	}
}

// Apply transforms apps according to plan and returns the manifest. The
// input set is not modified. Decisions referring to unknown tasks are an
// error, as are invalid decisions, dangling channels and an artifact
// whose ID is already a task of apps (see ReplicaID, VoterID and
// DispatchID).
//
// Each graph is lowered to index form, hardened by Transform, and built
// back into tasks (Instantiate), channels and the manifest's maps.
func Apply(apps *model.AppSet, plan Plan) (*Manifest, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	// Check that every planned task exists.
	known := make(map[model.TaskID]bool)
	for _, g := range apps.Graphs {
		for _, t := range g.Tasks {
			known[t.ID] = true
		}
	}
	for id := range plan {
		if !known[id] {
			return nil, fmt.Errorf("hardening: plan refers to unknown task %q", id)
		}
	}

	m := &Manifest{
		Apps:      &model.AppSet{Graphs: make([]*model.TaskGraph, len(apps.Graphs))},
		Plan:      plan.Clone(),
		Instances: make(map[model.TaskID][]model.TaskID),
		Voter:     make(map[model.TaskID]model.TaskID),
		Dispatch:  make(map[model.TaskID]model.TaskID),
		Origin:    make(map[model.TaskID]model.TaskID),
	}
	for gi, g := range apps.Graphs {
		links, err := model.Links(g)
		if err != nil {
			return nil, fmt.Errorf("hardening: %w", err)
		}
		dec := make([]Decision, len(g.Tasks))
		for i, t := range g.Tasks {
			dec[i] = plan[t.ID]
		}
		slots, hl := Transform(len(g.Tasks), links, dec)
		out := g.EmptyCopy()
		out.Tasks, out.Channels = make([]*model.Task, len(slots)), make([]*model.Channel, len(hl))
		for k, s := range slots {
			orig := g.Tasks[s.Task].ID
			t := Instantiate(g.Tasks[s.Task], s, dec[s.Task])
			out.Tasks[k] = t
			m.Origin[t.ID] = orig
			switch s.Role {
			case Self:
				m.Instances[orig] = []model.TaskID{orig}
				continue
			case Replica:
				m.Instances[orig] = append(m.Instances[orig], t.ID)
			case Voter:
				m.Voter[orig] = t.ID
			case Dispatch:
				m.Dispatch[orig] = t.ID
			}
			if known[t.ID] {
				return nil, fmt.Errorf("hardening: hardening task %q creates %q, which is already a task", orig, t.ID)
			}
		}
		for k, l := range hl {
			out.Channels[k] = &model.Channel{Src: out.Tasks[l.Src].ID, Dst: out.Tasks[l.Dst].ID, Size: l.Size}
		}
		out.RebuildIndex()
		m.Apps.Graphs[gi] = &out
	}
	return m, nil
}

// OriginalOf returns the original task ID behind any transformed ID,
// falling back to the ID itself.
func (m *Manifest) OriginalOf(id model.TaskID) model.TaskID {
	if o, ok := m.Origin[id]; ok {
		return o
	}
	return id
}

// InstancesOf returns the implementing instance IDs of an original task.
func (m *Manifest) InstancesOf(orig model.TaskID) []model.TaskID {
	return m.Instances[orig]
}

// ReplicatedTasks returns the original IDs of all replicated tasks, sorted
// for determinism.
func (m *Manifest) ReplicatedTasks() []model.TaskID {
	var out []model.TaskID
	for id, v := range m.Voter {
		if v != "" {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TechniqueCounts tallies how many tasks use each technique — the
// statistic reported in Section 5.2 ("87.03% ... of applied hardening
// techniques are re-executions").
func (m *Manifest) TechniqueCounts() map[Technique]int {
	out := make(map[Technique]int)
	for _, d := range m.Plan {
		out[d.Technique]++
	}
	return out
}
