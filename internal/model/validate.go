package model

import (
	"errors"
	"fmt"
)

// ErrInvalid wraps all validation failures so callers can classify them
// with errors.Is.
var ErrInvalid = errors.New("model: invalid")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// ValidateArchitecture checks that the platform description is
// well-formed: at least one processor, unique IDs and names, non-negative
// power figures and fault rates.
func ValidateArchitecture(a *Architecture) error {
	if a == nil {
		return invalidf("nil architecture")
	}
	if len(a.Procs) == 0 {
		return invalidf("architecture %q has no processors", a.Name)
	}
	ids := make(map[ProcID]bool, len(a.Procs))
	names := make(map[string]bool, len(a.Procs))
	for i := range a.Procs {
		p := &a.Procs[i]
		if p.ID < 0 {
			return invalidf("processor %q has negative ID %d", p.Name, p.ID)
		}
		if ids[p.ID] {
			return invalidf("duplicate processor ID %d", p.ID)
		}
		ids[p.ID] = true
		if p.Name != "" {
			if names[p.Name] {
				return invalidf("duplicate processor name %q", p.Name)
			}
			names[p.Name] = true
		}
		if p.StaticPower < 0 || p.DynPower < 0 {
			return invalidf("processor %q has negative power", p.Name)
		}
		if p.FaultRate < 0 {
			return invalidf("processor %q has negative fault rate", p.Name)
		}
		if p.Speed < 0 {
			return invalidf("processor %q has negative speed", p.Name)
		}
	}
	if a.Fabric.Bandwidth < 0 {
		return invalidf("fabric has negative bandwidth")
	}
	if a.Fabric.BaseLatency < 0 {
		return invalidf("fabric has negative base latency")
	}
	return nil
}

// ValidateGraph checks one task graph: positive period, deadline within
// reason, unique task IDs, sane timing parameters, channels referencing
// existing tasks and acyclic topology.
func ValidateGraph(g *TaskGraph) error {
	if g == nil {
		return invalidf("nil task graph")
	}
	if g.Name == "" {
		return invalidf("task graph without a name")
	}
	if g.Period <= 0 {
		return invalidf("graph %q has non-positive period %d", g.Name, g.Period)
	}
	if g.Deadline < 0 {
		return invalidf("graph %q has negative deadline", g.Name)
	}
	if len(g.Tasks) == 0 {
		return invalidf("graph %q has no tasks", g.Name)
	}
	if g.Droppable() && g.Service < 0 {
		return invalidf("droppable graph %q has negative service value", g.Name)
	}
	pos := make(map[TaskID]int, len(g.Tasks))
	for i, t := range g.Tasks {
		if t.ID == "" {
			return invalidf("graph %q has a task without an ID", g.Name)
		}
		if _, dup := pos[t.ID]; dup {
			return invalidf("graph %q has duplicate task %q", g.Name, t.ID)
		}
		pos[t.ID] = i
		if t.BCET < 0 || t.WCET < 0 {
			return invalidf("task %q has negative execution time", t.ID)
		}
		if t.BCET > t.WCET {
			return invalidf("task %q has bcet %d > wcet %d", t.ID, t.BCET, t.WCET)
		}
		if t.VoteOverhead < 0 || t.DetectOverhead < 0 {
			return invalidf("task %q has negative overhead", t.ID)
		}
		if t.ReExec < 0 {
			return invalidf("task %q has negative re-execution count", t.ID)
		}
	}
	links := make([]Link, len(g.Channels))
	for i, c := range g.Channels {
		src, ok := pos[c.Src]
		if !ok {
			return invalidf("graph %q channel refers to missing source %q", g.Name, c.Src)
		}
		dst, ok := pos[c.Dst]
		if !ok {
			return invalidf("graph %q channel refers to missing destination %q", g.Name, c.Dst)
		}
		links[i] = Link{Src: src, Dst: dst, Size: c.Size}
		if c.Src == c.Dst {
			return invalidf("graph %q has a self-loop on %q", g.Name, c.Src)
		}
		if c.Size < 0 {
			return invalidf("graph %q channel %q->%q has negative size", g.Name, c.Src, c.Dst)
		}
	}
	if _, _, ok := TopoSort(len(g.Tasks), links); !ok {
		return invalidf("model: graph %q contains a cycle", g.Name)
	}
	return nil
}

// ValidateAppSet checks the full application set: unique graph names,
// per-graph validity, globally unique task IDs and a representable
// hyperperiod.
func ValidateAppSet(s *AppSet) error {
	if s == nil || len(s.Graphs) == 0 {
		return invalidf("empty application set")
	}
	names := make(map[string]bool, len(s.Graphs))
	tasks := make(map[TaskID]bool)
	for _, g := range s.Graphs {
		if err := ValidateGraph(g); err != nil {
			return err
		}
		if names[g.Name] {
			return invalidf("duplicate graph name %q", g.Name)
		}
		names[g.Name] = true
		for _, t := range g.Tasks {
			if tasks[t.ID] {
				return invalidf("task ID %q appears in multiple graphs", t.ID)
			}
			tasks[t.ID] = true
		}
	}
	if _, err := s.Hyperperiod(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return nil
}

// ValidateMapping checks that every task of apps is mapped to a processor
// that exists in arch. It does not check allocation bits or replica
// placement; those are design constraints enforced by the DSE layer.
func ValidateMapping(arch *Architecture, apps *AppSet, m Mapping) error {
	if m == nil {
		return invalidf("nil mapping")
	}
	for _, g := range apps.Graphs {
		for _, t := range g.Tasks {
			p, ok := m[t.ID]
			if !ok {
				return invalidf("task %q is unmapped", t.ID)
			}
			if err := ValidatePlacement(t, p, arch.Proc(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValidatePlacement checks that task t may run on processor pid, which
// resolves to proc (nil when the architecture has no such processor).
func ValidatePlacement(t *Task, pid ProcID, proc *Processor) error {
	if proc == nil {
		return invalidf("task %q mapped to unknown processor %d", t.ID, pid)
	}
	if !t.CanRunOn(proc.Type) {
		return invalidf("task %q (types %v) mapped to processor %d of type %q",
			t.ID, t.AllowedTypes, pid, proc.Type)
	}
	return nil
}
