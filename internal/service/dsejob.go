package service

import (
	"bytes"
	"context"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mcmap/internal/dse"
	"mcmap/internal/model"
)

// dseParams are the /dse query parameters: the ftmap knobs, bounded to
// what a shared daemon should accept.
type dseParams struct {
	pop, gens         int
	seed              int64
	islands, interval int
	mutation          float64
	track, noDrop     bool

	// resume, when non-nil, restores the run from a prior job's barrier
	// checkpoint (set by handleJobResume, never from the wire).
	resume *dse.Checkpoint
}

func parseDSEParams(r *http.Request) (dseParams, error) {
	q := r.URL.Query()
	p := dseParams{pop: 40, gens: 60, seed: 1, islands: 1, interval: 10}
	if err := checkQueryKeys(q, "pop", "gens", "seed", "islands", "migration_interval", "mutation", "track", "nodrop"); err != nil {
		return p, err
	}
	intArg := func(name string, dst *int) error {
		if v := q.Get(name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return badParam(name, v)
			}
			*dst = n
		}
		return nil
	}
	for name, dst := range map[string]*int{
		"pop": &p.pop, "gens": &p.gens,
		"islands": &p.islands, "migration_interval": &p.interval,
	} {
		if err := intArg(name, dst); err != nil {
			return p, err
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, badParam("seed", v)
		}
		p.seed = n
	}
	if v := q.Get("mutation"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return p, badParam("mutation", v)
		}
		p.mutation = f
	}
	p.track = boolParam(q.Get("track"))
	p.noDrop = boolParam(q.Get("nodrop"))
	return p, nil
}

func boolParam(v string) bool { return v == "true" || v == "1" }

type paramError struct{ msg string }

func (e paramError) Error() string { return e.msg }

func badParam(name, v string) error {
	return paramError{msg: "invalid " + name + " parameter " + strconv.Quote(v)}
}

// checkQueryKeys rejects a query with any key outside allowed, naming
// every unknown key, so a misspelled parameter is never silently
// ignored.
func checkQueryKeys(q url.Values, allowed ...string) error {
	var unknown []string
	for k := range q {
		if !slices.Contains(allowed, k) {
			unknown = append(unknown, strconv.Quote(k))
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	return paramError{msg: "unknown query parameter " + strings.Join(unknown, ", ") + " (accepted: " + strings.Join(allowed, ", ") + ")"}
}

// options builds the engine options for one run of this job. The
// trajectory-steering fields come from the request; the machinery fields
// (pool, context, callbacks) are the server's.
func (p dseParams) options() dse.Options {
	return dse.Options{
		PopSize:           p.pop,
		Generations:       p.gens,
		Seed:              p.seed,
		Islands:           p.islands,
		MigrationInterval: p.interval,
		MutationRate:      p.mutation,
		TrackDroppingGain: p.track,
		DisableDropping:   p.noDrop,
	}
}

func (s *Server) handleDSE(w http.ResponseWriter, r *http.Request) {
	b := s.readSpec(w, r, false)
	if b == nil {
		return
	}
	params, err := parseDSEParams(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.submitDSE(w, b, params, "")
}

// submitDSE creates, registers and enqueues one DSE job (fresh or
// resumed) and answers 202 with its ID.
func (s *Server) submitDSE(w http.ResponseWriter, b *specBundle, params dseParams, resumedFrom string) {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		state:   stateQueued,
		cancel:  cancel,
		subs:    make(map[chan jobEvent]bool),
		spec:    b,
		params:  params,
		resumed: resumedFrom,
	}
	id := s.jobs.add(j)
	s.persistJob(j)
	if err := s.enqueue(task{job: j, run: func() { s.runDSEJob(ctx, j) }}); err != nil {
		j.finish(nil, err)
		s.persistJob(j)
		status := http.StatusServiceUnavailable
		if err == errQueueFull {
			status = http.StatusTooManyRequests
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		httpError(w, status, "%v", err)
		return
	}
	s.stats.jobsAccepted.Add(1)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": stateQueued})
}

// runDSEJob executes one optimization on a queue runner. All compute is
// bounded by the shared pool; the job's context cancels between
// generations and candidate claims and releases every pool slot.
func (s *Server) runDSEJob(ctx context.Context, j *job) {
	result, err := s.runDSE(ctx, j)
	j.finish(result, err)
	s.persistJob(j)
	switch j.status().State {
	case stateDone:
		s.stats.jobsDone.Add(1)
	case stateCancelled:
		s.stats.jobsCancelled.Add(1)
	default:
		s.stats.jobsFailed.Add(1)
	}
}

func (s *Server) runDSE(ctx context.Context, j *job) ([]byte, error) {
	p, err := dse.NewProblem(j.spec.spec.Architecture, j.spec.spec.Apps)
	if err != nil {
		return nil, err
	}

	opts := j.params.options()
	opts.Pool = s.pool
	opts.Workers = s.cfg.Workers
	opts.Context = ctx
	opts.Progress = j.recordGen
	opts.Resume = j.params.resume
	// Fleet dispatch: multi-island jobs spread their legs over the
	// configured workers. The engine forbids combining distribution with
	// checkpointing (island state lives on the workers between barriers),
	// so fleet jobs run checkpoint-free, and resumed jobs — which exist
	// only because a checkpoint was captured — run locally instead.
	if len(s.cfg.IslandHosts) > 0 && opts.Islands > 1 && opts.Resume == nil {
		opts.IslandHosts = s.cfg.IslandHosts
	} else {
		opts.CheckpointSink = func(ck *dse.Checkpoint) error {
			var buf bytes.Buffer
			if err := ck.Encode(&buf); err != nil {
				return err
			}
			j.recordCheckpoint(ck.Gen, buf.Bytes())
			s.persistJob(j)
			return nil
		}
	}
	res, err := dse.Optimize(p, opts)
	if err != nil {
		return nil, err
	}
	return s.marshalDSEResult(p, res)
}

// frontPoint is one Pareto-front member in the job result.
type frontPoint struct {
	Power   float64  `json:"power"`
	Service float64  `json:"service"`
	Dropped []string `json:"dropped"`
}

// dseResult is the /jobs/{id} result payload of a finished job.
type dseResult struct {
	Feasible bool `json:"feasible"`
	// Best is the minimum-power feasible design; its Spec (architecture +
	// hardened apps + mapping) is directly POSTable to /analyze.
	Best  *bestDesign  `json:"best,omitempty"`
	Front []frontPoint `json:"front"`

	Evaluated     int `json:"evaluated"`
	FeasibleCount int `json:"feasible_count"`
	Migrations    int `json:"migrations"`
}

type bestDesign struct {
	Power   float64     `json:"power"`
	Service float64     `json:"service"`
	Dropped []string    `json:"dropped"`
	Spec    *model.Spec `json:"spec"`
}

func (s *Server) marshalDSEResult(p *dse.Problem, res *dse.Result) ([]byte, error) {
	out := dseResult{
		Feasible:      res.Best != nil,
		Front:         []frontPoint{},
		Evaluated:     res.Stats.Evaluated,
		FeasibleCount: res.Stats.Feasible,
		Migrations:    res.Stats.Migrations,
	}
	for _, ind := range res.Front {
		dropped := ind.Dropped
		if dropped == nil {
			dropped = []string{}
		}
		out.Front = append(out.Front, frontPoint{Power: ind.Power, Service: ind.Service, Dropped: dropped})
	}
	if res.Best != nil {
		ph, err := p.Decode(res.Best.Genome)
		if err != nil {
			return nil, err
		}
		dropped := res.Best.Dropped
		if dropped == nil {
			dropped = []string{}
		}
		out.Best = &bestDesign{
			Power:   res.Best.Power,
			Service: res.Best.Service,
			Dropped: dropped,
			Spec: &model.Spec{
				Architecture: p.Arch,
				Apps:         ph.Manifest.Apps,
				Mapping:      ph.Mapping,
			},
		}
	}
	return mustJSON(out), nil
}

// handleJobResume restarts a cancelled or failed job from its newest
// barrier checkpoint as a NEW job (the settled record stays queryable).
// The resumed run's final archive is byte-identical to what the
// uninterrupted run would have produced (dse checkpoint contract).
func (s *Server) handleJobResume(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state := j.state
	ck := j.ck
	spec := j.spec
	params := j.params
	j.mu.Unlock()
	if state != stateCancelled && state != stateFailed {
		httpError(w, http.StatusConflict, "job is %s; only cancelled or failed jobs resume", state)
		return
	}
	if len(ck) == 0 {
		httpError(w, http.StatusConflict, "job has no checkpoint (it never reached a migration barrier)")
		return
	}
	decoded, err := dse.DecodeCheckpoint(bytes.NewReader(ck))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "decoding checkpoint: %v", err)
		return
	}
	params.resume = decoded
	s.submitDSE(w, spec, params, j.id)
}
