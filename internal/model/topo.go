package model

import "fmt"

// Link is a channel in index form: the positions of its source and
// destination tasks in their graph's Tasks, and its transfer size.
type Link struct {
	Src, Dst int
	Size     int64
}

// Links lowers the channels of g to index form, in channel order. It
// fails on a channel endpoint that is not a task of g.
func Links(g *TaskGraph) ([]Link, error) {
	pos := make(map[TaskID]int, len(g.Tasks))
	for i, t := range g.Tasks {
		if _, dup := pos[t.ID]; !dup {
			pos[t.ID] = i
		}
	}
	links := make([]Link, len(g.Channels))
	for i, c := range g.Channels {
		src, ok := pos[c.Src]
		if !ok {
			return nil, fmt.Errorf("model: graph %q: channel source %q not in graph", g.Name, c.Src)
		}
		dst, ok := pos[c.Dst]
		if !ok {
			return nil, fmt.Errorf("model: graph %q: channel destination %q not in graph", g.Name, c.Dst)
		}
		links[i] = Link{Src: src, Dst: dst, Size: c.Size}
	}
	return links, nil
}

// TopoSort is Kahn's algorithm over a graph of n tasks whose channels
// are links, in O(n + len(links)). The ready queue starts with the
// sources in declaration order, and each dequeued task releases its
// successors in channel order. It returns the task positions in
// topological order and each task's depth (0 for sources, otherwise 1 +
// the deepest predecessor), and ok=false when the graph has a cycle.
func TopoSort(n int, links []Link) (order, depth []int, ok bool) {
	return TopoSortInto(make([]int, TopoSortLen(n, links)), n, links)
}

// TopoSortLen is the length of the buffer TopoSortInto needs.
func TopoSortLen(n int, links []Link) int { return 5*n + 1 + len(links) }

// TopoSortInto is TopoSort working in buf, which must hold at least
// TopoSortLen(n, links) ints: order and depth are carved from it, so
// they live as long as the caller leaves buf alone.
func TopoSortInto(buf []int, n int, links []Link) (order, depth []int, ok bool) {
	buf = buf[:TopoSortLen(n, links)]
	clear(buf)
	indeg, next := buf[:n], buf[n:2*n]
	depth, order = buf[2*n:3*n], buf[3*n:3*n:4*n]
	start, succ := buf[4*n:5*n+1], buf[5*n+1:]
	// Successor lists in channel order, packed by source.
	for _, l := range links {
		indeg[l.Dst]++
		start[l.Src+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
		next[i] = start[i]
	}
	for _, l := range links {
		succ[next[l.Src]] = l.Dst
		next[l.Src]++
	}
	// order doubles as the FIFO ready queue.
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		t := order[head]
		for _, s := range succ[start[t]:start[t+1]] {
			depth[s] = max(depth[s], depth[t]+1)
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	return order, depth, len(order) == n
}

// sorted lowers g and sorts it, failing on dangling channel endpoints
// and cycles.
func sorted(g *TaskGraph) (order, depth []int, err error) {
	links, err := Links(g)
	if err != nil {
		return nil, nil, err
	}
	order, depth, ok := TopoSort(len(g.Tasks), links)
	if !ok {
		return nil, nil, fmt.Errorf("model: graph %q contains a cycle", g.Name)
	}
	return order, depth, nil
}

// TopoOrder returns the tasks of g in TopoSort's topological order, or
// an error if the graph has a cycle or dangling channel endpoints.
func TopoOrder(g *TaskGraph) ([]*Task, error) {
	order, _, err := sorted(g)
	if err != nil {
		return nil, err
	}
	out := make([]*Task, len(order))
	for i, k := range order {
		out[i] = g.Tasks[k]
	}
	return out, nil
}

// Sources returns the tasks with no predecessors.
func Sources(g *TaskGraph) []*Task {
	hasPred := make(map[TaskID]bool)
	for _, c := range g.Channels {
		hasPred[c.Dst] = true
	}
	var out []*Task
	for _, t := range g.Tasks {
		if !hasPred[t.ID] {
			out = append(out, t)
		}
	}
	return out
}

// Sinks returns the tasks with no successors. A graph's worst-case
// response time is the latest completion among its sinks.
func Sinks(g *TaskGraph) []*Task {
	hasSucc := make(map[TaskID]bool)
	for _, c := range g.Channels {
		hasSucc[c.Src] = true
	}
	var out []*Task
	for _, t := range g.Tasks {
		if !hasSucc[t.ID] {
			out = append(out, t)
		}
	}
	return out
}

// Reachable returns the set of task IDs reachable from start (inclusive)
// by following channels forward.
func Reachable(g *TaskGraph, start TaskID) map[TaskID]bool {
	seen := map[TaskID]bool{start: true}
	stack := []TaskID{start}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(id) {
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, s.ID)
			}
		}
	}
	return seen
}

// Depths returns each task's depth: 0 for sources, otherwise
// 1 + max(depth of predecessors). It requires an acyclic graph.
func Depths(g *TaskGraph) (map[TaskID]int, error) {
	_, depth, err := sorted(g)
	if err != nil {
		return nil, err
	}
	out := make(map[TaskID]int, len(g.Tasks))
	for i, t := range g.Tasks {
		out[t.ID] = depth[i]
	}
	return out, nil
}

// CriticalPathLength returns the longest source-to-sink path length of g
// using the provided per-task cost function (e.g. WCET). Channels
// contribute the cost returned by edgeCost (may be nil for zero).
func CriticalPathLength(g *TaskGraph, cost func(*Task) Time, edgeCost func(*Channel) Time) (Time, error) {
	order, err := TopoOrder(g)
	if err != nil {
		return 0, err
	}
	finish := make(map[TaskID]Time, len(order))
	var best Time
	for _, t := range order {
		start := Time(0)
		for _, c := range g.InChannels(t.ID) {
			e := Time(0)
			if edgeCost != nil {
				e = edgeCost(c)
			}
			if f := finish[c.Src] + e; f > start {
				start = f
			}
		}
		finish[t.ID] = start + cost(t)
		if finish[t.ID] > best {
			best = finish[t.ID]
		}
	}
	return best, nil
}
