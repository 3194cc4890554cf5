package dse

import (
	"fmt"
	"sort"
	"sync"

	"mcmap/internal/core"
	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/sched"
	"mcmap/internal/validate"
)

// defaultMaxK and defaultMaxReplicas are the paper's chromosome caps
// (k <= 3 re-executions, up to 4 replicas).
const (
	defaultMaxK        = 3
	defaultMaxReplicas = 4
)

// Problem is the immutable optimization instance shared by all
// evaluations.
type Problem struct {
	Arch *model.Architecture
	Apps *model.AppSet
	// MaxK is the largest re-execution degree the chromosome encodes.
	MaxK int
	// MaxReplicas is the largest replica count the chromosome encodes.
	MaxReplicas int
	// Policy is the priority policy used when compiling candidates (nil =
	// platform.DefaultPolicy).
	Policy platform.PriorityPolicy
	// Analysis configures the WCRT wrapper used for feasibility.
	Analysis core.Config

	taskIDs   []model.TaskID
	geneIdx   map[model.TaskID]int
	droppable []string

	// rel is the dense reliability table repair and evaluation read;
	// relTable builds it on first use. cmp, the compile table evaluation
	// reads, is built the same way by compileTable.
	relOnce sync.Once
	rel     *relTable
	cmpOnce sync.Once
	cmp     *compileTable
}

// NewProblem validates the instance and precomputes the chromosome
// layout. Validation is the full static pre-flight pass: beyond the
// structural checks it rejects instances no design could ever satisfy
// (unallocatable tasks, over-utilized platforms, unreachable
// reliability bounds at the chromosome's hardening caps), so the GA
// fails fast instead of evolving against an unsatisfiable instance.
func NewProblem(arch *model.Architecture, apps *model.AppSet) (*Problem, error) {
	if r := validate.CheckSystem(arch, apps, nil, validate.Limits{MaxK: defaultMaxK, MaxReplicas: defaultMaxReplicas}); r.HasErrors() {
		return nil, r.Err()
	}
	p := &Problem{
		Arch:        arch,
		Apps:        apps,
		MaxK:        defaultMaxK,
		MaxReplicas: defaultMaxReplicas,
		Analysis:    core.NewConfig(),
	}
	for _, g := range apps.Graphs {
		for _, t := range g.Tasks {
			p.taskIDs = append(p.taskIDs, t.ID)
		}
	}
	sort.Slice(p.taskIDs, func(i, j int) bool { return p.taskIDs[i] < p.taskIDs[j] })
	p.geneIdx = make(map[model.TaskID]int, len(p.taskIDs))
	for i, id := range p.taskIDs {
		p.geneIdx[id] = i
	}
	p.droppable = apps.DroppableNames()
	return p, nil
}

// TaskIDs returns the chromosome's task ordering.
func (p *Problem) TaskIDs() []model.TaskID { return p.taskIDs }

// DroppableNames returns the chromosome's droppable-application ordering.
func (p *Problem) DroppableNames() []string { return p.droppable }

// TotalService is the QoS value when nothing is dropped.
func (p *Problem) TotalService() float64 {
	var sum float64
	for _, name := range p.droppable {
		sum += p.Apps.Graph(name).Service
	}
	return sum
}

// Phenotype is the decoded design: hardened applications, mapping,
// allocation and dropped set.
type Phenotype struct {
	Manifest *hardening.Manifest
	Mapping  model.Mapping
	Alloc    map[model.ProcID]bool
	Dropped  core.DropSet
	// Service is sum sv_t over kept droppable graphs.
	Service float64
}

// Decode translates a genome into a phenotype (Figure 4, right side). The
// genome must already be repaired: decode itself performs no validity
// fixing beyond parameter clamping. Evaluation builds the same design
// from the genes directly (compileGenes); Decode serves export and the
// tools that need the string-keyed phenotype.
func (p *Problem) Decode(g *Genome) (*Phenotype, error) {
	plan := hardening.Plan{}
	for i, id := range p.taskIDs {
		ge := g.Genes[i]
		p.validateGene(&ge)
		switch ge.Technique {
		case hardening.ReExecution:
			plan[id] = hardening.Decision{Technique: hardening.ReExecution, K: ge.K}
		case hardening.ActiveReplication, hardening.PassiveReplication:
			plan[id] = hardening.Decision{Technique: ge.Technique, Replicas: ge.Replicas}
		}
	}
	man, err := hardening.Apply(p.Apps, plan)
	if err != nil {
		return nil, fmt.Errorf("dse: decode: %w", err)
	}
	mapping := model.Mapping{}
	for i, id := range p.taskIDs {
		ge := g.Genes[i]
		p.validateGene(&ge)
		switch ge.Technique {
		case hardening.ActiveReplication, hardening.PassiveReplication:
			for r := 0; r < ge.Replicas; r++ {
				mapping[hardening.ReplicaID(id, r)] = ge.ReplicaMap[r]
			}
			mapping[hardening.VoterID(id)] = ge.VoterMap
			if ge.Technique == hardening.PassiveReplication {
				// The dispatch step executes on the voter's processor.
				mapping[hardening.DispatchID(id)] = ge.VoterMap
			}
		default:
			mapping[id] = ge.Map
		}
	}
	alloc := make(map[model.ProcID]bool)
	for i, on := range g.Alloc {
		if on {
			alloc[p.Arch.Procs[i].ID] = true
		}
	}
	dropped := core.DropSet{}
	service := 0.0
	for i, name := range p.droppable {
		if g.Keep[i] {
			service += p.Apps.Graph(name).Service
		} else {
			dropped[name] = true
		}
	}
	return &Phenotype{
		Manifest: man,
		Mapping:  mapping,
		Alloc:    alloc,
		Dropped:  dropped,
		Service:  service,
	}, nil
}

// Compile builds the analyzable system from a phenotype.
func (p *Problem) Compile(ph *Phenotype) (*platform.System, error) {
	return platform.Compile(p.Arch, ph.Manifest.Apps, ph.Mapping, p.Policy)
}

// Analyzer returns the backend configured for this problem.
func (p *Problem) Analyzer() sched.Analyzer {
	if p.Analysis.Analyzer != nil {
		return p.Analysis.Analyzer
	}
	return &sched.Holistic{}
}
