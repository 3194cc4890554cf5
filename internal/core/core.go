// Package core implements the paper's primary contribution: the
// worst-case response-time analysis framework of Section 3 (Algorithm 1)
// for fault-tolerant mixed-criticality MPSoCs with run-time task dropping,
// together with the Naive comparison estimator of Section 5.1.
//
// The analysis wraps a schedulability backend (sched.Analyzer). A first
// pass bounds every job's fault-free window [minStart, maxFinish]. Then,
// for every job that can trigger a system state change (re-executable
// tasks and the dispatch steps of passively replicated tasks), a
// scenario is built in which
//
//   - tasks certainly finished before the fault keep their nominal bounds,
//   - droppable tasks certainly released after the transition are removed
//     ([0,0]),
//   - droppable tasks overlapping the transition may or may not run
//     ([0, wcet]), and
//   - non-droppable tasks in the critical state take the Eq. (1)
//     re-execution inflation.
//
// The reported WCRT is the maximum completion time over the fault-free
// pass and all scenarios.
package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/sched"
)

// DropSet is the dropped application set T_d: the names of droppable
// graphs that the scheduler detaches when the system enters the critical
// state.
type DropSet map[string]bool

// Clone copies the set.
func (d DropSet) Clone() DropSet {
	nd := make(DropSet, len(d))
	for k, v := range d {
		nd[k] = v
	}
	return nd
}

// Validate checks that every dropped graph exists and is droppable
// (sv_t != inf, Section 2.3).
func (d DropSet) Validate(apps *model.AppSet) error {
	for name := range d {
		g := apps.Graph(name)
		if g == nil {
			return fmt.Errorf("core: dropped graph %q does not exist", name)
		}
		if !g.Droppable() {
			return fmt.Errorf("core: graph %q is non-droppable and cannot be in the drop set", name)
		}
	}
	return nil
}

// ParseDropList resolves a drop list against an application set: "*"
// drops every droppable graph, "" drops none, and anything else is a
// comma-separated list of graph names whose empty items are skipped.
// Every name that is not a graph, or not a droppable one, is reported
// in one error.
func ParseDropList(apps *model.AppSet, list string) (DropSet, error) {
	dropped := DropSet{}
	switch list {
	case "*":
		for _, g := range apps.Graphs {
			if g.Droppable() {
				dropped[g.Name] = true
			}
		}
	case "":
	default:
		var bad []string
		for _, name := range strings.Split(list, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			switch g := apps.Graph(name); {
			case g == nil:
				bad = append(bad, strconv.Quote(name)+" (no such graph)")
			case !g.Droppable():
				bad = append(bad, strconv.Quote(name)+" (not droppable)")
			default:
				dropped[name] = true
			}
		}
		if len(bad) > 0 {
			return nil, fmt.Errorf("invalid drop parameter: %s", strings.Join(bad, ", "))
		}
	}
	return dropped, nil
}

// Config tunes the analysis.
type Config struct {
	// Analyzer is the sched backend; nil selects sched.Holistic defaults.
	Analyzer sched.Analyzer
	// Ctx, when non-nil, cancels an in-flight analysis: Analyze checks it
	// before the fault-free pass and before each scenario, so a cancelled
	// call returns ctx.Err() within one backend invocation's latency.
	// Cancellation affects only WHETHER a result is produced, never what
	// it is: an analysis that completes before the deadline is
	// byte-identical to one run without a context.
	Ctx context.Context
}

func (c Config) analyzer() sched.Analyzer {
	if c.Analyzer != nil {
		return c.Analyzer
	}
	return &sched.Holistic{}
}

// NewConfig returns the recommended configuration: the holistic backend.
func NewConfig() Config {
	return Config{Analyzer: &sched.Holistic{}}
}

// Scenario identifies one state-transition hypothesis: the trigger job
// (the compiled system has one node per job inside the hyperperiod) that
// experiences the first fault.
type Scenario struct {
	Trigger platform.NodeID
	// Window is the absolute fault window [minStart, maxFinish] of the
	// trigger job within the hyperperiod.
	WindowLo model.Time
	WindowHi model.Time
}

// ScenarioResult couples a scenario with its re-analysis outcome.
type ScenarioResult struct {
	Scenario Scenario
	// Exec is the modified [bcet', wcet'] vector fed to the backend.
	Exec []sched.ExecBounds
	// Result is the backend output for the scenario.
	Result *sched.Result
}

// Report is the full output of the proposed analysis.
type Report struct {
	Sys     *platform.System
	Dropped DropSet
	// Normal is the fault-free analysis (lines 2-9 of Algorithm 1).
	Normal *sched.Result
	// Scenarios are the per-trigger re-analyses (lines 10-34).
	Scenarios []ScenarioResult
	// GraphWCRT is, per graph, the maximum sink completion time over the
	// normal pass and every scenario (model.Infinity when divergent).
	GraphWCRT []model.Time
	// TaskWCRT is the per-node maximum completion time over all passes —
	// the "maximum completion time of v_in" of Algorithm 1 for every
	// task at once.
	TaskWCRT []model.Time
	// NormalOK reports whether every graph meets its deadline in the
	// fault-free state.
	NormalOK bool
	// CriticalOK reports whether every non-droppable graph meets its
	// deadline in every scenario.
	CriticalOK bool
	// ScenariosAnalyzed counts backend invocations, the fault-free pass
	// included; ScenariosDeduped counts trigger scenarios skipped because
	// an identical execution-interval vector was already analyzed.
	ScenariosAnalyzed int
	ScenariosDeduped  int
	// ScenariosIncremental is always 0: the engine no longer
	// warm-starts scenario analyses. The field stays for callers that
	// still read it.
	ScenariosIncremental int
}

// Feasible reports the combined schedulability verdict: fault-free
// deadlines for all graphs and critical-state deadlines for all
// non-droppable graphs.
func (r *Report) Feasible() bool { return r.NormalOK && r.CriticalOK }

// WCRTOf returns the analyzed WCRT of the named graph.
func (r *Report) WCRTOf(name string) model.Time {
	gi := r.Sys.GraphIndex(name)
	if gi < 0 {
		return model.Infinity
	}
	return r.GraphWCRT[gi]
}

// Analyze runs Algorithm 1 on a compiled system with the given dropped
// application set. The fault-free pass and every scenario run one after
// the other on the calling goroutine, through one backend session when
// the backend offers one (sched.SessionAnalyzer). Analyze is a
// Workspace's Analyze on fresh memory, so its Report is the caller's.
func Analyze(sys *platform.System, dropped DropSet, cfg Config) (*Report, error) {
	var w Workspace
	return w.Analyze(sys, dropped, cfg)
}

// Workspace runs Algorithm 1 in recycled memory: the Report its Analyze
// returns — the report itself, its drop set, every execution vector and
// every backend result it points to — belongs to the workspace and
// lives until the workspace's next Analyze, which overwrites it. A
// caller that keeps anything past that copies it out. The zero value is
// ready; a Workspace is not safe for concurrent use.
type Workspace struct {
	rep     Report
	dropped DropSet
	// normal and normalExec are the fault-free pass's result and
	// vector, results the scenarios' results.
	normal     sched.Result
	normalExec []sched.ExecBounds
	results    []sched.Result
	ses        *sched.Session
	cls        []nodeClass
	index      execIndex
	// free recycles scenario vectors: every vector of the last report's
	// scenarios returns here when the next analysis starts.
	free execFreelist
	jobs []scenarioJob
}

// Analyze is the package-level Analyze writing into w's memory.
func (w *Workspace) Analyze(sys *platform.System, dropped DropSet, cfg Config) (*Report, error) {
	if err := dropped.Validate(sys.Apps); err != nil {
		return nil, err
	}
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	analyzer := cfg.analyzer()
	var ses *sched.Session
	if sa, ok := analyzer.(sched.SessionAnalyzer); ok {
		if w.ses == nil {
			w.ses = sa.OpenSession(sys)
		} else {
			w.ses.Reset(sys)
		}
		ses = w.ses
		defer ses.Close()
	}
	// run analyzes exec through the session into res, or through the
	// plain backend into a result of its own.
	run := func(exec []sched.ExecBounds, res *sched.Result) (*sched.Result, error) {
		if ses == nil {
			return analyzer.Analyze(sys, exec)
		}
		return res, ses.AnalyzeInto(res, exec)
	}

	n := len(sys.Nodes)
	w.free.n = n
	for _, job := range w.jobs {
		w.free.put(job.exec)
	}
	w.jobs = w.jobs[:0]
	if w.dropped == nil {
		w.dropped = make(DropSet, len(dropped))
	}
	clear(w.dropped)
	for k, v := range dropped {
		w.dropped[k] = v
	}
	rep := &w.rep
	*rep = Report{
		Sys:       sys,
		Dropped:   w.dropped,
		Scenarios: rep.Scenarios[:0],
		GraphWCRT: resize(rep.GraphWCRT, len(sys.Apps.Graphs)),
		TaskWCRT:  resize(rep.TaskWCRT, n),
	}
	clear(rep.GraphWCRT)
	clear(rep.TaskWCRT)

	// ---- Lines 2-9: fault-free pass -------------------------------------
	w.normalExec = resize(w.normalExec, n)
	normalExecInto(w.normalExec, sys)
	normal, err := run(w.normalExec, &w.normal)
	if err != nil {
		return nil, err
	}
	rep.Normal = normal
	rep.ScenariosAnalyzed++
	accumulate(rep, normal)

	if diverged(normal) {
		// The fault-free system already diverges: every WCRT is infinite
		// and there is no meaningful window information for scenario
		// classification.
		for gi := range rep.GraphWCRT {
			rep.GraphWCRT[gi] = model.Infinity
		}
		rep.NormalOK = false
		rep.CriticalOK = false
		return rep, nil
	}

	// ---- Lines 10-34: per-trigger scenarios ------------------------------
	// Scenario generation and deduplication happen up front in trigger
	// order; the backend then analyzes the kept scenarios in that order.
	jobs := w.scenarioJobs(sys, dropped, normal)
	w.results = resize(w.results, len(jobs))
	rep.Scenarios = slices.Grow(rep.Scenarios, len(jobs))
	for i, job := range jobs {
		if err := ctxErr(cfg.Ctx); err != nil {
			return nil, err
		}
		res, err := run(job.exec, &w.results[i])
		if err != nil {
			return nil, err
		}
		rep.ScenariosAnalyzed++
		rep.Scenarios = append(rep.Scenarios, ScenarioResult{Scenario: job.sc, Exec: job.exec, Result: res})
		accumulate(rep, res)
	}

	rep.NormalOK, rep.CriticalOK = verdicts(sys, rep)
	return rep, nil
}

// resize returns s with length n, keeping its elements and reusing its
// capacity.
func resize[E any](s []E, n int) []E {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]E, n-cap(s))...)
}

// scenarioJob is one generated, deduplicated scenario awaiting its
// backend invocation.
type scenarioJob struct {
	sc   Scenario
	exec []sched.ExecBounds
}

// scenarioJobs builds the deduplicated per-trigger work list in
// deterministic trigger order, charging skipped duplicates to the
// report. Every trigger is analyzed unless an identical vector already
// is: a duplicate's backend result would be identical, so skipping it
// changes no maximum, verdict or Explain binding. Rejected vectors back
// the next trigger's construction, and the list stays in w.jobs for
// the next analysis to recycle.
func (w *Workspace) scenarioJobs(sys *platform.System, dropped DropSet, normal *sched.Result) []scenarioJob {
	w.index.reset()
	w.cls = resize(w.cls, len(sys.Nodes))
	buildNodeClasses(w.cls, sys, dropped)
	vecOf := func(i int32) []sched.ExecBounds { return w.jobs[i].exec }
	for _, v := range sys.Nodes {
		if !isTrigger(v) {
			continue
		}
		sc := Scenario{
			Trigger:  v.ID,
			WindowLo: normal.Bounds[v.ID].MinStart,
			WindowHi: normal.Bounds[v.ID].MaxFinish,
		}
		exec := w.free.get()
		scenarioExecInto(exec, w.cls, sys, normal, sc)
		h := hashExec(exec)
		if w.index.lookup(h, exec, vecOf) {
			w.rep.ScenariosDeduped++
			w.free.put(exec)
			continue
		}
		w.index.insert(h, int32(len(w.jobs)))
		w.jobs = append(w.jobs, scenarioJob{sc: sc, exec: exec})
	}
	return w.jobs
}

// ctxErr resolves the optional cancellation context: nil when no
// context is configured or it is still live, the context's error once
// it is done.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// diverged reports whether any bound saturated to infinity.
func diverged(res *sched.Result) bool {
	for _, b := range res.Bounds {
		if b.MaxFinish.IsInfinite() {
			return true
		}
	}
	return false
}

// isTrigger reports whether a node may trigger the critical state
// (Section 3: "passive replication and re-execution of any task trigger
// the critical state"): tasks hardened by re-execution, and the dispatch
// steps of passively replicated tasks — the instant a mismatch among the
// active results invokes a passive replica.
func isTrigger(n *platform.Node) bool {
	return n.Task.ReExecutable() || n.Task.Kind == model.KindDispatch
}

// NormalExec builds the fault-free execution intervals (lines 2-6):
// nominal bounds with passive replicas pinned to [0,0].
func NormalExec(sys *platform.System) []sched.ExecBounds {
	exec := make([]sched.ExecBounds, len(sys.Nodes))
	normalExecInto(exec, sys)
	return exec
}

// normalExecInto is NormalExec writing into a caller-owned vector.
func normalExecInto(exec []sched.ExecBounds, sys *platform.System) {
	for i, n := range sys.Nodes {
		if n.Task.Passive {
			exec[i] = sched.ExecBounds{}
		} else {
			exec[i] = sched.ExecBounds{B: n.NominalBCET(), W: n.NominalWCET()}
		}
	}
}

// ScenarioExec builds the modified execution intervals for one scenario —
// a direct transcription of lines 12-29 of Algorithm 1 at job granularity:
// the compiled nodes are jobs with absolute windows inside the
// hyperperiod, so maxFinish_w < minStart_v ("finished before the fault")
// and minStart_w > maxFinish_v ("released after the transition") compare
// exactly as in the paper's Figure 3.
func ScenarioExec(sys *platform.System, dropped DropSet, normal *sched.Result, sc Scenario) []sched.ExecBounds {
	cls := make([]nodeClass, len(sys.Nodes))
	buildNodeClasses(cls, sys, dropped)
	exec := make([]sched.ExecBounds, len(sys.Nodes))
	scenarioExecInto(exec, cls, sys, normal, sc)
	return exec
}

// nodeClass caches, per node, every execution interval the Algorithm 1
// classification can assign and the drop-set membership, so building a
// scenario vector needs no per-node map lookups or Eq. (1) arithmetic.
// The table depends only on (sys, dropped) and is shared by all triggers
// of one Analyze call.
type nodeClass struct {
	// normal is the fault-free interval (lines 14-17): nominal bounds,
	// passive replicas silent.
	normal sched.ExecBounds
	// transition is the may-run-or-not interval [0, wcet] (line 23),
	// also the critical-state interval of passive replicas.
	transition sched.ExecBounds
	// critical is the critical-state interval (line 26): Eq. (1)
	// inflation for active tasks, [0, wcet] for passive replicas.
	critical sched.ExecBounds
	// trigger is the node's failure-mode interval when it is itself the
	// fault trigger (triggerBounds).
	trigger sched.ExecBounds
	// executed is the raw [bcet, wcet] a passive replica takes when its
	// dispatch trigger invokes it.
	executed sched.ExecBounds
	// dropped records drop-set membership of the owning graph.
	dropped bool
}

// buildNodeClasses fills the per-node classification table for one
// (system, drop set) pair into cls, one entry per node.
func buildNodeClasses(cls []nodeClass, sys *platform.System, dropped DropSet) {
	for _, w := range sys.Nodes {
		c := &cls[w.ID]
		c.dropped = dropped[w.Graph.Name]
		c.transition = sched.ExecBounds{B: 0, W: w.NominalWCET()}
		if w.Task.Passive {
			c.normal = sched.ExecBounds{}
			c.critical = c.transition
		} else {
			c.normal = sched.ExecBounds{B: w.NominalBCET(), W: w.NominalWCET()}
			c.critical = sched.ExecBounds{B: w.NominalBCET(), W: w.HardenedWCET()}
		}
		c.trigger = triggerBounds(w)
		c.executed = sched.ExecBounds{B: w.BCET, W: w.WCET}
	}
}

// scenarioExecInto is ScenarioExec writing into a caller-owned vector
// (len(exec) == len(sys.Nodes) == len(cls)), the allocation-free form
// used by the scenario work-list construction: per node it reduces to
// two window comparisons and a table read.
func scenarioExecInto(exec []sched.ExecBounds, cls []nodeClass, sys *platform.System, normal *sched.Result, sc Scenario) {
	trigger := sys.Nodes[sc.Trigger]
	// For a dispatch trigger, the fault manifests as the invocation of the
	// trigger's passive replicas: they actually execute in this scenario.
	// They are the passive successors of the trigger, found by scanning
	// its few out-edges, so building a vector allocates nothing.
	dispatch := trigger.Task.Kind == model.KindDispatch
	for id := range exec {
		w := platform.NodeID(id)
		c := &cls[id]
		if w == sc.Trigger {
			exec[id] = c.trigger
			continue
		}
		if dispatch && sys.Nodes[id].Task.Passive && invokes(trigger, w) {
			exec[id] = c.executed
			continue
		}
		nb := &normal.Bounds[id]
		switch {
		case nb.MaxFinish < sc.WindowLo:
			// Normal state (lines 14-17).
			exec[id] = c.normal
		case c.dropped:
			if nb.MinStart > sc.WindowHi {
				// Certainly dropped (lines 20-21).
				exec[id] = sched.ExecBounds{}
			} else {
				// Transition: either executed or dropped (line 23).
				exec[id] = c.transition
			}
		default:
			// Critical state, non-dropped task (line 26): Eq. (1)
			// inflation; passive replicas of other tasks take the safe
			// [0, wcet] over-approximation (see DESIGN.md).
			exec[id] = c.critical
		}
	}
}

// invokes reports whether the dispatch step v feeds node w.
func invokes(v *platform.Node, w platform.NodeID) bool {
	for _, e := range v.Out {
		if e.To == w {
			return true
		}
	}
	return false
}

// triggerBounds gives the faulting task its failure-mode interval: full
// Eq. (1) inflation for re-executable tasks; a dispatch trigger itself
// stays timeless (its passive replicas take their executed bounds via
// ScenarioExec).
func triggerBounds(v *platform.Node) sched.ExecBounds {
	if v.Task.Kind == model.KindDispatch {
		return sched.ExecBounds{}
	}
	return sched.ExecBounds{B: v.NominalBCET(), W: v.HardenedWCET()}
}

// accumulate folds a backend result into the per-graph / per-job maxima.
// A graph's response in one pass is the latest sink finish of any instance
// measured from that instance's release.
func accumulate(rep *Report, res *sched.Result) {
	sys := rep.Sys
	for i := range sys.Nodes {
		if res.Bounds[i].MaxFinish > rep.TaskWCRT[i] {
			rep.TaskWCRT[i] = res.Bounds[i].MaxFinish
		}
	}
	for gi := range sys.GraphNodes {
		worst := graphResponse(sys, res, gi)
		if worst > rep.GraphWCRT[gi] {
			rep.GraphWCRT[gi] = worst
		}
	}
}

// graphResponse is the worst response time of graph gi in one backend
// result: max over sink jobs of (maxFinish - instance release).
func graphResponse(sys *platform.System, res *sched.Result, gi int) model.Time {
	var worst model.Time
	for _, nid := range sys.GraphNodes[gi] {
		n := sys.Nodes[nid]
		if len(n.Out) != 0 {
			continue
		}
		f := res.Bounds[nid].MaxFinish
		if f.IsInfinite() {
			return model.Infinity
		}
		if r := f - n.Release; r > worst {
			worst = r
		}
	}
	return worst
}

// verdicts computes the normal-state and critical-state schedulability
// flags (see DESIGN.md feasibility semantics).
func verdicts(sys *platform.System, rep *Report) (normalOK, criticalOK bool) {
	normalOK = true
	for gi, g := range sys.Apps.Graphs {
		if graphResponse(sys, rep.Normal, gi) > g.EffectiveDeadline() {
			normalOK = false
		}
	}
	criticalOK = true
	for gi, g := range sys.Apps.Graphs {
		if rep.Dropped[g.Name] {
			// Dropped applications are detached in the critical state;
			// they owe service only in the normal state.
			continue
		}
		// Non-droppable graphs AND kept droppable graphs must deliver
		// their service through every fault scenario: the quality of
		// service sum counts alive applications, so alive means
		// schedulable (Section 2.3).
		if rep.GraphWCRT[gi] > g.EffectiveDeadline() {
			criticalOK = false
		}
	}
	return normalOK, criticalOK
}

// Binding describes which pass determines a task's reported WCRT: the
// fault-free pass or a specific trigger scenario.
type Binding struct {
	// Task is the analyzed job's task ID.
	Task model.TaskID
	// WCRT is the task's reported worst completion time.
	WCRT model.Time
	// Trigger is the task ID of the fault trigger of the binding
	// scenario, or "" when the fault-free pass binds.
	Trigger model.TaskID
	// Window is the trigger's fault window (zero values for the
	// fault-free pass).
	WindowLo, WindowHi model.Time
}

// Explain returns, for every job of the named original task, which
// scenario produced its reported WCRT — the designer-facing answer to
// "what makes this task late?".
func (r *Report) Explain(task model.TaskID) []Binding {
	var out []Binding
	for _, n := range r.Sys.Nodes {
		if n.Task.ID != task {
			continue
		}
		b := Binding{Task: task, WCRT: r.Normal.Bounds[n.ID].MaxFinish}
		for _, sc := range r.Scenarios {
			if f := sc.Result.Bounds[n.ID].MaxFinish; f > b.WCRT {
				b.WCRT = f
				b.Trigger = r.Sys.Nodes[sc.Scenario.Trigger].Task.ID
				b.WindowLo = sc.Scenario.WindowLo
				b.WindowHi = sc.Scenario.WindowHi
			}
		}
		out = append(out, b)
	}
	return out
}
