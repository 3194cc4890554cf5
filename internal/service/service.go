// Package service implements mcmapd, the analysis-as-a-service daemon:
// a long-running HTTP/JSON front end over the repository's WCRT analysis
// (Algorithm 1) and genetic design-space exploration.
//
// What the daemon adds over the one-shot CLIs (wcrtcheck, ftmap) is
// state that pays off across requests:
//
//   - request coalescing: concurrent identical /analyze requests (same
//     canonical spec fingerprint and parameters) share ONE analysis, and
//     repeats are served from a bounded result cache without recomputing
//     or even re-encoding anything;
//   - a bounded job queue with backpressure (429 + Retry-After when
//     full) and priorities (analyses preempt DSE legs at the queue),
//     DSE compute drawing from one shared workpool budget;
//   - streaming progress: per-generation GenStats over NDJSON or SSE
//     while a DSE job runs;
//   - checkpointed jobs: DSE state is captured at every migration
//     barrier, and a cancelled or failed job resumes from its newest
//     checkpoint into a byte-identical final archive.
//
// See DESIGN.md §9 for the architecture and README.md for a curl tour.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcmap/internal/dse"
	"mcmap/internal/workpool"
)

// Config sizes the daemon's shared state. The zero value selects
// sensible defaults for every field.
type Config struct {
	// Workers is the shared compute budget (workpool slots) every DSE
	// job's candidate evaluations draw from. Analyses run on the queue
	// runners and borrow no pool slot. Default GOMAXPROCS.
	Workers int
	// Runners is the number of queue-runner goroutines; one is reserved
	// for analyze tasks. Each analysis runs sequentially on its runner,
	// so Runners bounds how many analyses compute at once; DSE compute
	// is bounded by Workers. Default 2.
	Runners int
	// QueueDepth bounds QUEUED tasks; past it the daemon answers 429.
	// Default 64.
	QueueDepth int
	// ResultCacheSize bounds the /analyze response cache. Default 256.
	ResultCacheSize int
	// MaxBodyBytes bounds request bodies. Default 16 MiB.
	MaxBodyBytes int64
	// IslandHosts lists fleet worker addresses (host:port, each running
	// `mcmapd -worker`). When set, multi-island /dse jobs distribute
	// their island legs over these workers (round-robin, island i to
	// host i mod len) instead of spawning local child processes; the
	// final archive is byte-identical either way, and a lost worker is
	// taken over locally (dse.Options.IslandHosts). Fleet jobs skip
	// barrier checkpointing — the engine forbids combining the two — and
	// resumed jobs always run locally for the same reason. Empty means
	// no fleet.
	IslandHosts []string
	// DataDir, when set, persists every job record (inputs, terminal
	// state, result, newest checkpoint) under DataDir/jobs and reloads
	// them on boot: jobs that were queued or running when the daemon
	// died come back as failed-with-checkpoint, so POST
	// /jobs/{id}/resume continues them to a byte-identical final
	// archive. Empty keeps jobs in memory only.
	DataDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Runners <= 0 {
		c.Runners = 2
	}
	if c.Runners < 2 {
		c.Runners = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	return c
}

// counters is the daemon's /stats state; every field is monotonic and
// updated atomically.
type counters struct {
	analyzeRequests atomic.Int64
	analyzeRuns     atomic.Int64 // analyses actually executed
	coalesced       atomic.Int64 // requests that joined an in-flight analysis
	resultHits      atomic.Int64 // requests served from the result cache
	rejected        atomic.Int64 // 429 backpressure responses
	jobsAccepted    atomic.Int64
	jobsDone        atomic.Int64
	jobsFailed      atomic.Int64
	jobsCancelled   atomic.Int64
}

// Server is the daemon. Create with New, mount via Handler, stop with
// Close.
type Server struct {
	cfg     Config
	pool    *workpool.Pool
	ownPool bool
	mux     *http.ServeMux
	queue   *jobQueue
	jobs    *jobTable
	results *resultCache
	stats   counters
	started time.Time

	mu       sync.Mutex
	inflight map[string]*flight
	closed   bool
	runners  sync.WaitGroup
}

// New builds a daemon and starts its queue runners. pool may be nil (the
// server then owns a Workers-sized pool and closes it on Close).
func New(cfg Config, pool *workpool.Pool) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     pool,
		mux:      http.NewServeMux(),
		queue:    newJobQueue(cfg.QueueDepth),
		jobs:     newJobTable(),
		results:  newResultCache(cfg.ResultCacheSize),
		inflight: make(map[string]*flight),
		started:  time.Now(),
	}
	if s.pool == nil {
		s.pool = workpool.New(cfg.Workers)
		s.ownPool = true
	}
	s.routes()
	// Reload persisted jobs before the runners start: the table must be
	// settled (and the ID counter advanced past every reloaded job)
	// before any new submission can race it.
	if cfg.DataDir != "" {
		s.loadPersistedJobs()
	}
	for i := 0; i < cfg.Runners; i++ {
		s.runners.Add(1)
		analyzeOnly := i == 0 // runner 0 is reserved for analyses
		//lint:allow gospawn long-lived queue-runner goroutines, joined by Close
		go func() {
			defer s.runners.Done()
			s.runLoop(analyzeOnly)
		}()
	}
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("POST /analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /dse", s.handleDSE)
	s.mux.HandleFunc("GET /jobs", s.handleJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("POST /jobs/{id}/resume", s.handleJobResume)
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers returns the resolved shared compute budget.
func (s *Server) Workers() int { return s.cfg.Workers }

// QueueDepth returns the resolved queued-task bound.
func (s *Server) QueueDepth() int { return s.cfg.QueueDepth }

// runLoop is one queue runner: it pops tasks (analyses first) until the
// queue closes. Job state transitions happen here so that a task
// cancelled while still queued never starts.
func (s *Server) runLoop(analyzeOnly bool) {
	for {
		t, ok := s.queue.pop(analyzeOnly)
		if !ok {
			return
		}
		if t.job != nil {
			t.job.mu.Lock()
			skip := t.job.state != stateQueued
			if !skip {
				t.job.state = stateRunning
			}
			t.job.mu.Unlock()
			if skip { // cancelled while queued
				continue
			}
		}
		t.run()
	}
}

// Close stops the daemon: running jobs are cancelled, queued work is
// failed out, runners are joined and (when owned) the pool is closed.
// In-flight HTTP handlers waiting on coalesced flights are released by
// the tasks they wait on completing or failing.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	for _, j := range s.jobs.all() {
		j.cancel()
	}
	for _, t := range s.queue.close() {
		if t.job != nil {
			t.job.finish(nil, context.Canceled)
		}
		if t.analyze {
			t.run() // flights observe the closed server and fail fast
		}
	}
	s.runners.Wait()
	if s.ownPool {
		s.pool.Close()
	}
}

// enqueue pushes a task, translating backpressure into the 429 contract.
func (s *Server) enqueue(t task) error {
	err := s.queue.push(t)
	if err != nil {
		s.stats.rejected.Add(1)
	}
	return err
}

// retryAfterSeconds is the Retry-After hint sent with 429 responses: a
// coarse estimate scaled by queue occupancy rather than a measurement —
// its job is to spread retries out, not to promise a slot.
func (s *Server) retryAfterSeconds() int {
	a, d := s.queue.lengths()
	secs := 1 + (a+d)/4
	if secs > 30 {
		secs = 30
	}
	return secs
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	qa, qd := s.queue.lengths()
	bytesIn, bytesOut := dse.TransportCounters()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": int(time.Since(s.started).Seconds()),
		"workers":        s.pool.Cap(),
		"workers_in_use": s.pool.InUse(),
		"analyze": map[string]int64{
			"requests":    s.stats.analyzeRequests.Load(),
			"runs":        s.stats.analyzeRuns.Load(),
			"coalesced":   s.stats.coalesced.Load(),
			"result_hits": s.stats.resultHits.Load(),
			"cached":      int64(s.results.len()),
		},
		"jobs": map[string]int64{
			"accepted":  s.stats.jobsAccepted.Load(),
			"done":      s.stats.jobsDone.Load(),
			"failed":    s.stats.jobsFailed.Load(),
			"cancelled": s.stats.jobsCancelled.Load(),
		},
		"queue": map[string]int64{
			"analyze":  int64(qa),
			"dse":      int64(qd),
			"depth":    int64(s.cfg.QueueDepth),
			"rejected": s.stats.rejected.Load(),
		},
		// Fleet transport traffic is process-global (a daemon is either a
		// coordinator or a worker): frame payload bytes after compression,
		// both directions, across all transports since start.
		"fleet": map[string]int64{
			"hosts":     int64(len(s.cfg.IslandHosts)),
			"bytes_in":  bytesIn,
			"bytes_out": bytesOut,
		},
	})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.all()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		st.Result = nil // listing stays light; fetch /jobs/{id} for results
		out = append(out, st)
	}
	sortJobStatuses(out)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	switch j.state {
	case stateQueued:
		// The runner will skip it; settle the record now.
		j.state = stateCancelled
		j.publishLocked(jobEvent{Type: "cancelled"})
		j.mu.Unlock()
		j.cancel()
		s.stats.jobsCancelled.Add(1)
		s.persistJob(j)
	case stateRunning:
		j.mu.Unlock()
		j.cancel() // the engine surfaces context.Canceled; finish() settles
	default:
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, j.status())
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJSONBytes writes pre-marshaled JSON (the warm-cache fast path).
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func sortJobStatuses(out []jobStatus) {
	// Job IDs are "j<counter>"; numeric order is creation order.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && jobNum(out[k-1].ID) > jobNum(out[k].ID); k-- {
			out[k-1], out[k] = out[k], out[k-1]
		}
	}
}

func jobNum(id string) int {
	n, _ := strconv.Atoi(id[1:])
	return n
}
