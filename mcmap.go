// Package mcmap is a library for static mapping of mixed-critical
// applications onto fault-tolerant MPSoCs, reproducing Kang et al.,
// "Static Mapping of Mixed-Critical Applications for Fault-Tolerant
// MPSoCs" (DAC 2014).
//
// The library provides:
//
//   - a system model: heterogeneous processors with power and
//     transient-fault rates, and periodic task graphs that are either
//     non-droppable (reliability constraint f_t) or droppable (service
//     value sv_t);
//   - hardening transformations: re-execution (Eq. 1), active and passive
//     replication with majority voters;
//   - the paper's WCRT analysis framework (Algorithm 1) over a pluggable
//     schedulability backend, plus the Naive, Adhoc and Monte-Carlo
//     (WC-Sim) comparison estimators;
//   - a discrete-event MPSoC simulator with fault injection and the
//     run-time task-dropping protocol;
//   - reliability and expected-power models;
//   - a SPEA2-based genetic design-space exploration over allocation,
//     keep/drop selection, binding and hardening (Figure 4);
//   - the paper's benchmarks (Cruise, DT-med, DT-large, Synth) and
//     harnesses regenerating every table and figure of the evaluation.
//
// # Quick start
//
//	arch := &mcmap.Architecture{ ... }
//	app := mcmap.NewTaskGraph("ctrl", 100*mcmap.Millisecond).SetCritical(1e-12)
//	app.AddTask("sense", bcet, wcet, ve, dt)
//	...
//	man, _ := mcmap.Harden(apps, plan)
//	sys, _ := mcmap.Compile(arch, man.Apps, mapping)
//	rep, _ := mcmap.AnalyzeWCRT(sys, mcmap.DropSet{"media": true})
//	fmt.Println(rep.WCRTOf("ctrl"), rep.Feasible())
//
// See the examples directory for runnable programs.
package mcmap

import (
	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/dse"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/power"
	"mcmap/internal/reliability"
	"mcmap/internal/sched"
	"mcmap/internal/sim"
	"mcmap/internal/validate"
)

// ---------------------------------------------------------------------------
// System model (Section 2.1).

// Time is one microsecond; see Millisecond and Second.
type Time = model.Time

// Time unit constants.
const (
	Microsecond = model.Microsecond
	Millisecond = model.Millisecond
	Second      = model.Second
	// Infinity is the unbounded-response sentinel returned by diverging
	// analyses.
	Infinity = model.Infinity
)

// Core model types (see the model documentation for field semantics).
type (
	// Architecture is the MPSoC platform A = (P, nw).
	Architecture = model.Architecture
	// Processor is one processing element with power and fault rate.
	Processor = model.Processor
	// ProcID identifies a processor.
	ProcID = model.ProcID
	// Fabric is the on-chip communication fabric.
	Fabric = model.Fabric
	// FabricKind selects the fabric topology (ideal / bus / crossbar /
	// mesh).
	FabricKind = model.FabricKind
	// TaskGraph is one periodic application t = (V_t, E_t, pr_t, f_t, sv_t).
	TaskGraph = model.TaskGraph
	// Task is one task with (bcet, wcet, ve, dt).
	Task = model.Task
	// TaskID identifies a task ("graph/name").
	TaskID = model.TaskID
	// Channel is a data dependency with a transfer size.
	Channel = model.Channel
	// AppSet is the application set T.
	AppSet = model.AppSet
	// Mapping assigns tasks to processors.
	Mapping = model.Mapping
	// Spec bundles architecture, applications and mapping for (de)serialization.
	Spec = model.Spec
)

// NewTaskGraph creates an application with the given name and period; use
// SetCritical or SetService to classify it.
func NewTaskGraph(name string, period Time) *TaskGraph { return model.NewTaskGraph(name, period) }

// NewAppSet bundles task graphs into an application set.
func NewAppSet(graphs ...*TaskGraph) *AppSet { return model.NewAppSet(graphs...) }

// LoadSpec reads a problem instance from a JSON file.
func LoadSpec(path string) (*Spec, error) { return model.LoadSpec(path) }

// LoadSpecLenient reads a problem instance without validating it, so
// Validate can report every diagnostic of a malformed spec.
func LoadSpecLenient(path string) (*Spec, error) { return model.LoadSpecLenient(path) }

// SaveSpec writes a problem instance to a JSON file.
func SaveSpec(path string, s *Spec) error { return model.SaveSpec(path, s) }

// ---------------------------------------------------------------------------
// Static validation.

type (
	// ValidationResult is the ordered diagnostic list of one validation
	// pass; HasErrors/Err/Format are the common consumers.
	ValidationResult = validate.Result
	// ValidationDiagnostic is one finding with a stable code (MC01xx
	// system checks, MC02xx DSE checks), severity, location and hint.
	ValidationDiagnostic = validate.Diagnostic
	// ValidationSeverity classifies a diagnostic.
	ValidationSeverity = validate.Severity
	// HardeningLimits bounds the hardening space the reachability and
	// overflow checks consider.
	HardeningLimits = validate.Limits
)

// Diagnostic severities.
const (
	SeverityInfo    = validate.Info
	SeverityWarning = validate.Warning
	SeverityError   = validate.Error
)

// Validate statically checks a problem instance and returns every
// diagnostic found: structural problems, necessary-condition violations
// (utilization, deadlines, Eq. 1 overflow) and reliability targets that
// no hardening within the default DSE limits could reach. It never
// panics, even on arbitrarily malformed specs.
func Validate(s *Spec) *ValidationResult { return validate.CheckSpec(s) }

// ValidateSystem is Validate over unbundled parts with explicit
// hardening limits; mapping may be nil.
func ValidateSystem(arch *Architecture, apps *AppSet, mapping Mapping, lim HardeningLimits) *ValidationResult {
	return validate.CheckSystem(arch, apps, mapping, lim)
}

// DefaultHardeningLimits mirrors the DSE chromosome caps (k <= 3,
// replicas <= 4) used by Validate.
func DefaultHardeningLimits() HardeningLimits { return validate.DefaultLimits() }

// ---------------------------------------------------------------------------
// Hardening (Section 2.2).

type (
	// HardeningTechnique enumerates none / re-execution / active / passive.
	HardeningTechnique = hardening.Technique
	// HardeningDecision is the per-task choice with its degree.
	HardeningDecision = hardening.Decision
	// HardeningPlan maps tasks to decisions.
	HardeningPlan = hardening.Plan
	// HardeningManifest records the transformation provenance.
	HardeningManifest = hardening.Manifest
)

// Fabric topologies.
const (
	FabricIdeal     = model.FabricIdeal
	FabricSharedBus = model.FabricSharedBus
	FabricCrossbar  = model.FabricCrossbar
	FabricMesh      = model.FabricMesh
)

// Hardening techniques.
const (
	HardenNone     = hardening.None
	ReExecution    = hardening.ReExecution
	ActiveReplica  = hardening.ActiveReplication
	PassiveReplica = hardening.PassiveReplication
)

// Harden applies a hardening plan, producing the modified application set
// T' (replicas, voters, dispatch steps) and its manifest.
func Harden(apps *AppSet, plan HardeningPlan) (*HardeningManifest, error) {
	return hardening.Apply(apps, plan)
}

// ReplicaID, VoterID and DispatchID name the artifacts replication
// introduces for a task, for use in mappings.
func ReplicaID(orig TaskID, i int) TaskID { return hardening.ReplicaID(orig, i) }

// VoterID returns the voter task ID of a replicated task.
func VoterID(orig TaskID) TaskID { return hardening.VoterID(orig) }

// DispatchID returns the dispatch-step ID of a passively replicated task.
func DispatchID(orig TaskID) TaskID { return hardening.DispatchID(orig) }

// ---------------------------------------------------------------------------
// Compilation and analysis (Section 3).

type (
	// System is the compiled platform (job-level, hyperperiod-unrolled).
	System = platform.System
	// PriorityPolicy assigns fixed priorities at compile time.
	PriorityPolicy = platform.PriorityPolicy
	// DropSet is the dropped application set T_d.
	DropSet = core.DropSet
	// Report is the Algorithm 1 output.
	Report = core.Report
	// AnalysisConfig tunes Algorithm 1.
	AnalysisConfig = core.Config
	// Estimator is a WCRT estimation method (Proposed/Naive/Adhoc/WC-Sim).
	Estimator = core.Estimator
	// ExecBounds is a per-job execution-time interval (the [bcet', wcet']
	// of Algorithm 1), the element type of the Exec vector of each
	// Report.Scenarios entry.
	ExecBounds = sched.ExecBounds
	// SchedResult is one raw schedulability-analysis result (per-job
	// bounds and verdict), the type of Report.Normal and of the Result
	// of each Report.Scenarios entry.
	SchedResult = sched.Result
)

// Compile builds the analyzable/executable system from an architecture,
// a (hardened) application set and a mapping, using the default
// rate-monotonic priority policy.
func Compile(arch *Architecture, apps *AppSet, mapping Mapping) (*System, error) {
	return platform.Compile(arch, apps, mapping, nil)
}

// CompileWithPolicy selects an explicit priority policy.
func CompileWithPolicy(arch *Architecture, apps *AppSet, mapping Mapping, policy PriorityPolicy) (*System, error) {
	return platform.Compile(arch, apps, mapping, policy)
}

// AnalyzeWCRT runs the paper's Algorithm 1 with the recommended
// configuration and returns the full report (per-graph WCRTs, scenario
// details, feasibility verdicts).
func AnalyzeWCRT(sys *System, dropped DropSet) (*Report, error) {
	return core.Analyze(sys, dropped, core.NewConfig())
}

// NewAnalysisConfig returns the recommended Algorithm 1 configuration
// (holistic backend, scenario deduplication). Adjust fields — e.g.
// PruneDominated or Ctx — and pass the result to AnalyzeWCRTWith. An
// analysis runs on the calling goroutine; analyze independent systems
// from separate goroutines to use more cores.
func NewAnalysisConfig() AnalysisConfig { return core.NewConfig() }

// AnalyzeWCRTWith is AnalyzeWCRT with an explicit configuration.
func AnalyzeWCRTWith(sys *System, dropped DropSet, cfg AnalysisConfig) (*Report, error) {
	return core.Analyze(sys, dropped, cfg)
}

// TaskSlack is the per-task WCET headroom record of Sensitivity.
type TaskSlack = core.TaskSlack

// Sensitivity computes, for a feasible design, how much each task's WCET
// can grow before the design becomes infeasible under Algorithm 1.
func Sensitivity(sys *System, dropped DropSet) ([]TaskSlack, error) {
	return core.Sensitivity(sys, dropped, core.NewConfig())
}

// Estimators comparable in the Table 2 experiment.
var (
	// EstimatorProposed is Algorithm 1.
	EstimatorProposed Estimator = core.Proposed{Config: core.NewConfig()}
	// EstimatorNaive is the pessimistic static bound of Section 5.1.
	EstimatorNaive Estimator = core.Naive{}
	// EstimatorAdhoc is the deterministic worst-trace estimate (unsafe).
	EstimatorAdhoc Estimator = sim.Adhoc{}
)

// NewWCSim builds the Monte-Carlo estimator with the given number of
// failure profiles.
func NewWCSim(runs int, seed int64) Estimator { return sim.WCSim{Runs: runs, Seed: seed} }

// ---------------------------------------------------------------------------
// Simulation.

type (
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// SimResult is the aggregated outcome.
	SimResult = sim.RunResult
	// FaultModel injects transient faults.
	FaultModel = sim.FaultModel
	// ExecModel draws execution times.
	ExecModel = sim.ExecModel
	// Trace records execution segments for Gantt rendering.
	Trace = sim.Trace
)

// Simulate runs the discrete-event simulator.
func Simulate(sys *System, cfg SimConfig) (*SimResult, error) { return sim.Run(sys, cfg) }

// Campaign types: Monte-Carlo fault-injection with response-time
// distributions.
type (
	// CampaignConfig parameterizes RunCampaign.
	CampaignConfig = sim.CampaignConfig
	// CampaignResult aggregates per-application response statistics.
	CampaignResult = sim.CampaignResult
)

// RunCampaign executes a Monte-Carlo fault-injection campaign and
// aggregates per-application response-time distributions.
func RunCampaign(sys *System, cfg CampaignConfig) (*CampaignResult, error) {
	return sim.RunCampaign(sys, cfg)
}

// RandomFaults builds a seeded fault model with exaggeration factor scale
// (use AutoFaultScale for a sensible default).
func RandomFaults(seed int64, scale float64) FaultModel { return sim.NewRandomFaults(seed, scale) }

// DirectedFault injects exactly one fault: at the given task, instance and
// execution attempt.
func DirectedFault(task TaskID, instance, attempt int) FaultModel {
	return &sim.ProfileFaults{Hits: map[sim.FaultCoord]bool{
		{Task: task, Instance: instance, Attempt: attempt}: true,
	}}
}

// AutoFaultScale calibrates the fault-rate exaggeration so roughly one
// fault occurs per hyperperiod.
func AutoFaultScale(sys *System) float64 { return sim.AutoFaultScale(sys) }

// ---------------------------------------------------------------------------
// Reliability and power.

type (
	// ReliabilityAssessment is the f_t constraint verdict.
	ReliabilityAssessment = reliability.Assessment
	// PowerBreakdown is the expected-power decomposition.
	PowerBreakdown = power.Breakdown
)

// AssessReliability evaluates the unsafe-execution probabilities of a
// hardened, mapped design against the per-application constraints.
func AssessReliability(arch *Architecture, man *HardeningManifest, mapping Mapping) (*ReliabilityAssessment, error) {
	return reliability.Assess(arch, man, mapping)
}

// ExpectedPower computes the optimization objective
// sum_p (stat_p + dyn_p * u_p) with fault-aware expected utilizations.
// allocated may be nil ("processors hosting at least one task").
func ExpectedPower(arch *Architecture, man *HardeningManifest, mapping Mapping, allocated map[ProcID]bool) (*PowerBreakdown, error) {
	return power.Expected(arch, man, mapping, allocated)
}

// ---------------------------------------------------------------------------
// Design-space exploration (Section 4).

type (
	// Problem is a DSE instance.
	Problem = dse.Problem
	// DSEOptions tunes the genetic algorithm.
	DSEOptions = dse.Options
	// DSEResult is the optimization outcome.
	DSEResult = dse.Result
	// Individual is one evaluated candidate design.
	Individual = dse.Individual
	// Genome is the Figure 4 chromosome.
	Genome = dse.Genome
)

// NewProblem validates an instance for optimization.
func NewProblem(arch *Architecture, apps *AppSet) (*Problem, error) {
	return dse.NewProblem(arch, apps)
}

// Optimize runs the genetic design-space exploration.
func Optimize(p *Problem, opts DSEOptions) (*DSEResult, error) { return dse.Optimize(p, opts) }

// ---------------------------------------------------------------------------
// Benchmarks.

// Benchmark is a bundled problem instance from the paper's evaluation.
type Benchmark = benchmarks.Benchmark

// BenchmarkByName returns one of "cruise", "dt-med", "dt-large",
// "synth-1", "synth-2".
func BenchmarkByName(name string) (*Benchmark, error) { return benchmarks.ByName(name) }

// BenchmarkNames lists the bundled benchmarks.
func BenchmarkNames() []string { return benchmarks.Names() }
