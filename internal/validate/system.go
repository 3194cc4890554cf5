package validate

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
)

// utilizationEps absorbs the float rounding of the utilization sums so
// a platform loaded to exactly 100% is not flagged.
const utilizationEps = 1e-9

// maxUnrolledJobs bounds the job count n a spec may unroll to over one
// hyperperiod (MC0126). Compilation and analysis grow with n²: the
// compiled system's ancestor bitsets take n²/8 bytes (2 MiB at the
// cap), and when every job shares one processor the holistic kernel's
// interference, guaranteed-demand and reader segments of one analysis
// hold n(n-1)/2 4-byte node indices each (96 MiB at the cap, each
// array allocated once from counts); non-preemptive jobs add n(n-1)/2
// blocking entries and as many readers (160 MiB in all). The bundled
// benchmarks unroll to at most 234 jobs under worst-case hardening.
const maxUnrolledJobs = 4096

// CheckSpec validates a full problem instance with the default
// hardening limits. It accepts arbitrarily malformed specs (including
// nil fields) and never panics.
func CheckSpec(s *model.Spec) *Result {
	if s == nil {
		r := &Result{}
		r.report("MC0101", Error, "spec", "nil spec", "provide a JSON object with architecture and apps")
		return r
	}
	return CheckSystem(s.Architecture, s.Apps, s.Mapping, DefaultLimits())
}

// CheckSystem validates an architecture + application set (+ optional
// mapping) and returns every diagnostic found. lim bounds the hardening
// space used by the Eq. 1 overflow and reliability-reachability checks.
func CheckSystem(arch *model.Architecture, apps *model.AppSet, mapping model.Mapping, lim Limits) *Result {
	r := &Result{}
	archOK := checkArchitecture(r, arch)
	appsOK := checkAppSet(r, apps, mapping != nil, lim)
	if archOK && appsOK {
		checkCrossCutting(r, arch, apps, lim)
		if mapping != nil {
			checkMapping(r, arch, apps, mapping)
		}
	}
	return r
}

// checkArchitecture reports MC0101..MC0104 and returns whether the
// platform is sound enough for cross-cutting checks.
func checkArchitecture(r *Result, a *model.Architecture) bool {
	if a == nil {
		r.report("MC0101", Error, "architecture", "missing architecture", "add an architecture with at least one processor")
		return false
	}
	if len(a.Procs) == 0 {
		r.report("MC0101", Error, "architecture", "no processors", "add at least one processor")
		return false
	}
	ok := true
	ids := map[model.ProcID]int{}
	names := map[string]int{}
	for i := range a.Procs {
		p := &a.Procs[i]
		loc := fmt.Sprintf("proc[%d]", i)
		if p.ID < 0 {
			r.report("MC0102", Error, loc, fmt.Sprintf("negative processor ID %d", p.ID), "processor IDs must be non-negative")
			ok = false
		} else if prev, dup := ids[p.ID]; dup {
			r.report("MC0102", Error, loc, fmt.Sprintf("duplicate processor ID %d (also proc[%d])", p.ID, prev), "give every processor a unique ID")
			ok = false
		} else {
			ids[p.ID] = i
		}
		if p.Name != "" {
			if prev, dup := names[p.Name]; dup {
				r.report("MC0102", Error, loc, fmt.Sprintf("duplicate processor name %q (also proc[%d])", p.Name, prev), "give every processor a unique name")
				ok = false
			} else {
				names[p.Name] = i
			}
		}
		if p.StaticPower < 0 || p.DynPower < 0 {
			r.report("MC0103", Error, loc, "negative power figure", "static and dynamic power must be >= 0")
			ok = false
		}
		if p.FaultRate < 0 || math.IsNaN(p.FaultRate) || math.IsInf(p.FaultRate, 0) {
			r.report("MC0103", Error, loc, fmt.Sprintf("invalid fault rate %v", p.FaultRate), "lambda_p must be a finite value >= 0")
			ok = false
		}
		if p.Speed < 0 || math.IsNaN(p.Speed) || math.IsInf(p.Speed, 0) {
			r.report("MC0103", Error, loc, fmt.Sprintf("invalid speed %v", p.Speed), "speed must be finite and >= 0 (0 means 1.0)")
			ok = false
		}
	}
	if a.Fabric.Bandwidth < 0 || math.IsNaN(a.Fabric.Bandwidth) {
		r.report("MC0104", Error, "fabric", fmt.Sprintf("invalid bandwidth %v", a.Fabric.Bandwidth), "bandwidth must be >= 0 (0 means infinite)")
		ok = false
	}
	if a.Fabric.BaseLatency < 0 {
		r.report("MC0104", Error, "fabric", fmt.Sprintf("negative base latency %d", a.Fabric.BaseLatency), "base latency must be >= 0")
		ok = false
	}
	if a.Fabric.MeshWidth < 0 {
		r.report("MC0104", Error, "fabric", fmt.Sprintf("negative mesh width %d", a.Fabric.MeshWidth), "mesh width must be >= 0 (0 picks a near-square grid)")
		ok = false
	}
	return ok
}

// checkAppSet reports the per-graph diagnostics MC0105..MC0114,
// MC0118/MC0119, MC0126 and MC0127, and returns whether the set is
// sound enough for cross-cutting checks. mapped says whether a mapping
// comes with the set, i.e. whether it is already hardened.
func checkAppSet(r *Result, s *model.AppSet, mapped bool, lim Limits) bool {
	if s == nil || len(s.Graphs) == 0 {
		r.report("MC0105", Error, "apps", "empty application set", "add at least one task graph")
		return false
	}
	ok := true
	graphNames := map[string]bool{}
	globalTasks := map[model.TaskID]string{}
	for gi, g := range s.Graphs {
		loc := fmt.Sprintf("graph[%d]", gi)
		if g == nil {
			r.report("MC0105", Error, loc, "null graph entry", "remove the null entry")
			ok = false
			continue
		}
		if g.Name == "" {
			r.report("MC0105", Error, loc, "graph without a name", "name every graph")
			ok = false
		} else {
			loc = "graph " + g.Name
			if graphNames[g.Name] {
				r.report("MC0105", Error, loc, "duplicate graph name", "graph names must be unique")
				ok = false
			}
			graphNames[g.Name] = true
		}
		if !checkGraph(r, g, loc, lim) {
			ok = false
			continue
		}
		for _, t := range g.Tasks {
			if t == nil || t.ID == "" {
				continue // reported by checkGraph
			}
			if owner, dup := globalTasks[t.ID]; dup {
				r.report("MC0107", Error, "task "+string(t.ID),
					fmt.Sprintf("task ID appears in %s and %s", owner, loc),
					"task IDs must be unique across the whole application set")
				ok = false
			} else {
				globalTasks[t.ID] = loc
			}
		}
	}
	if ok {
		checkHardeningIDs(r, s, globalTasks)
		h, err := s.Hyperperiod()
		if err != nil {
			r.report("MC0112", Error, "apps", fmt.Sprintf("hyperperiod not representable: %v", err),
				"pick harmonic (or at least smaller) periods so their LCM stays finite")
			return false
		}
		// Without a mapping the DSE may still harden every task into
		// MaxReplicas replicas plus a voter and a dispatch step.
		expand := int64(1)
		if !mapped && lim.MaxReplicas > 0 {
			expand = int64(lim.MaxReplicas) + 2
		}
		if jobs := unrolledJobs(s, h, expand); jobs > maxUnrolledJobs {
			what := "unrolls to"
			if expand > 1 {
				what = fmt.Sprintf("may unroll (with up to %d replicas, voter and dispatch per task) to", lim.MaxReplicas)
			}
			r.report("MC0126", Error, "apps",
				fmt.Sprintf("hyperperiod %v %s %d jobs, above the %d-job budget", h, what, jobs, maxUnrolledJobs),
				"pick harmonic periods closer together so each graph repeats fewer times per hyperperiod")
		}
	}
	return ok
}

// checkHardeningIDs reports MC0127 for every task whose ID the
// hardening transformation derives from another task u of the set: a
// replica ID u#r<n> (any n, since callers may raise the replica cap),
// the voter ID u#v or the dispatch ID u#d. Hardening u would create a
// second task with that ID.
func checkHardeningIDs(r *Result, s *model.AppSet, tasks map[model.TaskID]string) {
	for _, g := range s.Graphs {
		for _, t := range g.Tasks {
			if u, what := derivedFrom(t.ID); u != "" && tasks[u] != "" {
				r.report("MC0127", Error, "task "+string(t.ID),
					fmt.Sprintf("task ID is the %s ID of task %q", what, u),
					"rename the task: hardening derives the IDs <task>#r<n>, <task>#v and <task>#d from every task")
			}
		}
	}
}

// derivedFrom returns the task an artifact ID names and which artifact
// it is, or "" when id is no hardening.ReplicaID, VoterID or DispatchID.
func derivedFrom(id model.TaskID) (model.TaskID, string) {
	s := string(id)
	if u, ok := strings.CutSuffix(s, "#v"); ok {
		return model.TaskID(u), "voter"
	}
	if u, ok := strings.CutSuffix(s, "#d"); ok {
		return model.TaskID(u), "dispatch"
	}
	i := strings.LastIndex(s, "#r")
	if i < 0 {
		return "", ""
	}
	u := model.TaskID(s[:i])
	if n, err := strconv.Atoi(s[i+2:]); err == nil && n >= 0 && hardening.ReplicaID(u, n) == id {
		return u, fmt.Sprintf("replica %d", n)
	}
	return "", ""
}

// unrolledJobs counts the jobs of one hyperperiod h, Σ_g (h/T_g)·|V_g|,
// times expand, saturating at math.MaxInt64 instead of overflowing.
func unrolledJobs(s *model.AppSet, h model.Time, expand int64) int64 {
	var n uint64
	for _, g := range s.Graphs {
		hi, perInst := bits.Mul64(uint64(len(g.Tasks)), uint64(expand))
		hi2, jobs := bits.Mul64(uint64(h/g.Period), perInst)
		sum, carry := bits.Add64(n, jobs, 0)
		if hi|hi2|carry != 0 || sum > math.MaxInt64 {
			return math.MaxInt64
		}
		n = sum
	}
	return int64(n)
}

// checkGraph reports the diagnostics local to one task graph and
// returns whether its structure (IDs, channels, acyclicity) is sound.
func checkGraph(r *Result, g *model.TaskGraph, loc string, lim Limits) bool {
	ok := true
	if g.Period <= 0 {
		r.report("MC0106", Error, loc, fmt.Sprintf("non-positive period %d", g.Period), "periods must be positive microsecond counts")
		ok = false
	}
	if g.Deadline < 0 {
		r.report("MC0106", Error, loc, fmt.Sprintf("negative deadline %d", g.Deadline), "use 0 for an implicit deadline (== period)")
		ok = false
	}
	if g.Period > 0 && g.Deadline > g.Period {
		r.report("MC0106", Warning, loc,
			fmt.Sprintf("deadline %d exceeds period %d", g.Deadline, g.Period),
			"the analyses assume constrained deadlines; instances may overlap")
	}
	if len(g.Tasks) == 0 {
		r.report("MC0105", Error, loc, "graph has no tasks", "add at least one task")
		return false
	}
	if g.Droppable() {
		if g.Service < 0 {
			r.report("MC0118", Error, loc, fmt.Sprintf("droppable graph with negative service value %v", g.Service), "service values must be >= 0")
			ok = false
		} else if g.Service == 0 {
			r.report("MC0118", Warning, loc, "droppable graph with zero service value",
				"keeping it never pays off in the QoS objective; set a positive sv_t or mark it critical")
		}
	} else if g.Service != 0 {
		r.report("MC0118", Info, loc, "non-droppable graph carries a service value",
			"sv_t is ignored for graphs with a reliability bound")
	}

	seen := map[model.TaskID]bool{}
	structOK := true
	for ti, t := range g.Tasks {
		tloc := fmt.Sprintf("%s task[%d]", loc, ti)
		if t == nil {
			r.report("MC0107", Error, tloc, "null task entry", "remove the null entry")
			ok, structOK = false, false
			continue
		}
		if t.ID == "" {
			r.report("MC0107", Error, tloc, "task without an ID", "task IDs must be non-empty")
			ok, structOK = false, false
		} else {
			tloc = "task " + string(t.ID)
			if seen[t.ID] {
				r.report("MC0107", Error, tloc, "duplicate task ID within the graph", "task IDs must be unique")
				ok, structOK = false, false
			}
			seen[t.ID] = true
		}
		if t.BCET < 0 || t.WCET < 0 {
			r.report("MC0108", Error, tloc, fmt.Sprintf("negative execution time (bcet %d, wcet %d)", t.BCET, t.WCET), "bcet and wcet must be >= 0")
			ok = false
		} else if t.BCET > t.WCET {
			r.report("MC0108", Error, tloc, fmt.Sprintf("bcet %d exceeds wcet %d", t.BCET, t.WCET), "swap or fix the bounds")
			ok = false
		}
		if t.VoteOverhead < 0 || t.DetectOverhead < 0 {
			r.report("MC0109", Error, tloc, fmt.Sprintf("negative overhead (ve %d, dt %d)", t.VoteOverhead, t.DetectOverhead), "ve and dt must be >= 0")
			ok = false
		}
		if t.ReExec < 0 {
			r.report("MC0109", Error, tloc, fmt.Sprintf("negative re-execution count %d", t.ReExec), "k must be >= 0")
			ok = false
		}
		checkEq1Overflow(r, t, tloc, lim)
	}
	for ci, c := range g.Channels {
		cloc := fmt.Sprintf("%s channel[%d]", loc, ci)
		if c == nil {
			r.report("MC0110", Error, cloc, "null channel entry", "remove the null entry")
			ok, structOK = false, false
			continue
		}
		if !seen[c.Src] {
			r.report("MC0110", Error, cloc, fmt.Sprintf("source %q does not exist", c.Src), "channels must connect tasks of the same graph")
			ok, structOK = false, false
		}
		if !seen[c.Dst] {
			r.report("MC0110", Error, cloc, fmt.Sprintf("destination %q does not exist", c.Dst), "channels must connect tasks of the same graph")
			ok, structOK = false, false
		}
		if c.Src == c.Dst && c.Src != "" {
			r.report("MC0110", Error, cloc, fmt.Sprintf("self-loop on %q", c.Src), "a task cannot depend on itself")
			ok, structOK = false, false
		}
		if c.Size < 0 {
			r.report("MC0110", Error, cloc, fmt.Sprintf("negative transfer size %d", c.Size), "sizes are byte counts >= 0")
			ok = false
		}
	}
	// Cycle detection only on structurally sound graphs: TopoOrder
	// assumes channels reference existing tasks.
	if structOK {
		if _, err := model.TopoOrder(g); err != nil {
			r.report("MC0111", Error, loc, fmt.Sprintf("dependency cycle: %v", err), "task graphs must be acyclic")
			ok = false
		}
	}
	checkVoterWiring(r, g, loc)
	return ok && structOK
}

// checkEq1Overflow reports MC0113 when the Eq. 1 inflated WCET
// (wcet + dt) * (k+1) leaves the representable range — as an Error for
// the task's own re-execution degree, and as a Warning when only the
// DSE cap maxK would push it over.
func checkEq1Overflow(r *Result, t *model.Task, loc string, lim Limits) {
	if t.WCET < 0 || t.DetectOverhead < 0 {
		return // negative inputs reported elsewhere
	}
	base := float64(t.WCET) + float64(t.DetectOverhead)
	if t.ReExec > 0 && base*float64(t.ReExec+1) >= float64(model.Infinity) {
		r.report("MC0113", Error, loc,
			fmt.Sprintf("hardened WCET (wcet+dt)*(k+1) overflows at k=%d (Eq. 1)", t.ReExec),
			"shrink wcet/dt or the re-execution degree")
		return
	}
	if lim.MaxK > 0 && base*float64(lim.MaxK+1) >= float64(model.Infinity) {
		r.report("MC0113", Warning, loc,
			fmt.Sprintf("hardened WCET overflows at the DSE cap k=%d (Eq. 1)", lim.MaxK),
			"the DSE cannot explore re-execution for this task")
	}
}

// checkVoterWiring reports MC0119 inconsistencies in a transformed
// (hardened) graph: replica groups without a voter, voters without
// enough replicas, passive replicas without a dispatch step, and
// hardening artifacts lacking an origin. Untransformed graphs (all
// tasks KindRegular) produce nothing.
func checkVoterWiring(r *Result, g *model.TaskGraph, loc string) {
	type group struct {
		replicas, passives, voters, dispatches int
	}
	groups := map[model.TaskID]*group{}
	at := func(origin model.TaskID) *group {
		if groups[origin] == nil {
			groups[origin] = &group{}
		}
		return groups[origin]
	}
	for _, t := range g.Tasks {
		if t == nil {
			continue
		}
		switch t.Kind {
		case model.KindReplica, model.KindVoter, model.KindDispatch:
			if t.Origin == "" {
				r.report("MC0119", Error, "task "+string(t.ID),
					fmt.Sprintf("%s without an origin task", t.Kind),
					"hardening artifacts must record the original task ID")
				continue
			}
		default:
			continue
		}
		gr := at(t.Origin)
		switch t.Kind {
		case model.KindReplica:
			gr.replicas++
			if t.Passive {
				gr.passives++
			}
		case model.KindVoter:
			gr.voters++
		case model.KindDispatch:
			gr.dispatches++
		}
	}
	origins := make([]model.TaskID, 0, len(groups))
	for o := range groups {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, o := range origins {
		gr := groups[o]
		oloc := "task " + string(o)
		switch {
		case gr.replicas > 0 && gr.voters == 0:
			r.report("MC0119", Error, oloc,
				fmt.Sprintf("%d replicas but no voter", gr.replicas),
				"replication requires a majority voter task")
		case gr.voters > 0 && gr.replicas < 2:
			r.report("MC0119", Error, oloc,
				fmt.Sprintf("voter with %d replicas", gr.replicas),
				"a voter needs at least two replicas to compare")
		}
		if gr.voters > 1 {
			r.report("MC0119", Error, oloc, fmt.Sprintf("%d voters for one task", gr.voters), "replication introduces exactly one voter")
		}
		if gr.passives > 0 && gr.dispatches == 0 {
			r.report("MC0119", Error, oloc,
				fmt.Sprintf("%d passive replicas but no dispatch step", gr.passives),
				"passive replication requires the voter-side dispatch task")
		}
	}
}

// checkCrossCutting runs the necessary-condition checks that need both
// a sound platform and a sound application set: per-task allocatability
// and deadlines (MC0114/MC0115), platform-level utilization (MC0116)
// and reliability reachability (MC0117).
func checkCrossCutting(r *Result, arch *model.Architecture, apps *model.AppSet, lim Limits) {
	totalUtil := 0.0
	for _, g := range apps.Graphs {
		deadline := g.EffectiveDeadline()
		for _, t := range g.Tasks {
			loc := "task " + string(t.ID)
			// Passive replicas execute only on a voter tie-break; counting
			// them would turn the necessary condition into a sufficient one.
			passive := t.Passive
			best := model.Infinity
			compatible := 0
			for i := range arch.Procs {
				p := &arch.Procs[i]
				if !t.CanRunOn(p.Type) {
					continue
				}
				compatible++
				if c := p.ScaleExecFloor(t.NominalWCET()); c < best {
					best = c
				}
			}
			if compatible == 0 {
				r.report("MC0115", Error, loc,
					fmt.Sprintf("no processor matches allowed types %v", t.AllowedTypes),
					"add a processor of a matching type or widen allowed_types")
				continue
			}
			if best > deadline {
				r.report("MC0114", Error, loc,
					fmt.Sprintf("minimum execution time %v exceeds the deadline %v on every compatible processor", best, deadline),
					"no mapping can meet this deadline; shrink the wcet or relax the deadline")
			}
			if !passive {
				totalUtil += float64(best) / float64(g.Period)
			}
		}
	}
	if capacity := float64(len(arch.Procs)); totalUtil > capacity+utilizationEps {
		r.report("MC0116", Error, "apps",
			fmt.Sprintf("total minimum utilization %.3f exceeds the platform capacity %.0f", totalUtil, capacity),
			"even a perfect mapping over-subscribes the platform; add processors or shrink the load")
	}
	checkReliabilityReachable(r, arch, apps, lim)
}

// checkMapping reports the mapping diagnostics MC0120..MC0125 for a
// concrete design.
func checkMapping(r *Result, arch *model.Architecture, apps *model.AppSet, m model.Mapping) {
	known := map[model.TaskID]bool{}
	util := map[model.ProcID]float64{}
	type placement struct {
		origin model.TaskID
		proc   model.ProcID
	}
	replicaSeats := map[placement]model.TaskID{}
	for _, g := range apps.Graphs {
		for _, t := range g.Tasks {
			known[t.ID] = true
			loc := "task " + string(t.ID)
			pid, mapped := m[t.ID]
			if !mapped {
				r.report("MC0120", Error, loc, "task is unmapped", "every task (including hardening artifacts) needs a processor")
				continue
			}
			proc := arch.Proc(pid)
			if proc == nil {
				r.report("MC0121", Error, loc, fmt.Sprintf("mapped to unknown processor %d", pid), "map to a declared processor ID")
				continue
			}
			if !t.CanRunOn(proc.Type) {
				r.report("MC0122", Error, loc,
					fmt.Sprintf("mapped to processor %d of type %q but allows only %v", pid, proc.Type, t.AllowedTypes),
					"map the task to a compatible processor type")
			}
			if t.Kind == model.KindReplica && !t.Passive && t.Origin != "" {
				seat := placement{origin: t.Origin, proc: pid}
				if other, dup := replicaSeats[seat]; dup {
					r.report("MC0123", Error, loc,
						fmt.Sprintf("co-located with replica %s on processor %d", other, pid),
						"active replicas of one task must sit on pairwise distinct processors")
				} else {
					replicaSeats[seat] = t.ID
				}
			}
			if g.Period > 0 && !t.Passive {
				util[pid] += float64(proc.ScaleExec(t.NominalWCET())) / float64(g.Period)
			}
		}
	}
	extra := make([]model.TaskID, 0)
	for id := range m {
		if !known[id] {
			extra = append(extra, id)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	for _, id := range extra {
		r.report("MC0124", Warning, "mapping", fmt.Sprintf("entry for unknown task %q", id), "remove stale mapping entries")
	}
	pids := make([]model.ProcID, 0, len(util))
	for pid := range util {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		if util[pid] > 1+utilizationEps {
			r.report("MC0125", Warning, fmt.Sprintf("proc %d", pid),
				fmt.Sprintf("mapped utilization %.3f exceeds 1", util[pid]),
				"this design cannot be schedulable; rebalance the mapping")
		}
	}
}
