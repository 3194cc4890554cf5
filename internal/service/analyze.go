package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"mcmap/internal/core"
	"mcmap/internal/model"
	"mcmap/internal/platform"
	"mcmap/internal/validate"
)

// specBundle is a decoded request spec with its canonical fingerprint
// (mapping included — the /analyze coalescing identity).
type specBundle struct {
	spec *model.Spec
	full string
}

// readSpec decodes and statically validates the request body. Structural
// errors answer 400; Error-severity diagnostics answer 422 with the full
// diagnostic list (the analysis verdicts would be meaningless, exactly
// the wcrtcheck refusal). Returns nil after writing the error response.
func (s *Server) readSpec(w http.ResponseWriter, r *http.Request, needMapping bool) *specBundle {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return nil
	}
	return s.readSpecBytes(w, body, needMapping)
}

func (s *Server) readSpecBytes(w http.ResponseWriter, body []byte, needMapping bool) *specBundle {
	spec, err := model.ReadSpec(bytes.NewReader(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return nil
	}
	if needMapping && len(spec.Mapping) == 0 {
		httpError(w, http.StatusBadRequest, "spec has no mapping; produce one with ftmap -o or POST /dse")
		return nil
	}
	if res := validate.CheckSpec(spec); res.HasErrors() {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error":       "spec has validation errors",
			"diagnostics": res.Diags,
		})
		return nil
	}
	return bundleSpec(spec)
}

// decodeSpecBundle is the HTTP-free spec decode used when reloading
// persisted jobs: same decode and validation as readSpecBytes, errors
// returned instead of written.
func decodeSpecBundle(body []byte) (*specBundle, error) {
	spec, err := model.ReadSpec(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if res := validate.CheckSpec(spec); res.HasErrors() {
		return nil, fmt.Errorf("spec has validation errors")
	}
	return bundleSpec(spec), nil
}

func bundleSpec(spec *model.Spec) *specBundle {
	return &specBundle{spec: spec, full: validate.Fingerprint(spec)}
}

// analyzeParams are the /analyze query parameters, resolved to their
// canonical form so the coalescing key is order- and spelling-stable.
type analyzeParams struct {
	dropped core.DropSet
	dropKey string // sorted resolved names
}

// resolveAnalyzeParams resolves the query against the spec. A key other
// than drop, or a drop list naming graphs that do not exist or are not
// droppable, is an input error, reported with every bad name before any
// work is queued.
func resolveAnalyzeParams(r *http.Request, spec *model.Spec) (analyzeParams, error) {
	if err := checkQueryKeys(r.URL.Query(), "drop"); err != nil {
		return analyzeParams{}, err
	}
	drop := "*"
	if r.URL.Query().Has("drop") {
		drop = r.URL.Query().Get("drop")
	}
	dropped, err := core.ParseDropList(spec.Apps, drop)
	if err != nil {
		return analyzeParams{}, err
	}
	names := make([]string, 0, len(dropped))
	for name := range dropped {
		names = append(names, name)
	}
	sort.Strings(names)
	return analyzeParams{dropped: dropped, dropKey: strings.Join(names, ",")}, nil
}

// graphReport is one application's row in the /analyze response.
type graphReport struct {
	Name     string     `json:"name"`
	Class    string     `json:"class"` // "critical" | "droppable"
	WCRT     model.Time `json:"wcrt"`
	Deadline model.Time `json:"deadline"`
	Dropped  bool       `json:"dropped"`
	OK       bool       `json:"ok"`
}

// analyzeResponse is the /analyze result: the wcrtcheck report as JSON.
type analyzeResponse struct {
	Feasible   bool          `json:"feasible"`
	NormalOK   bool          `json:"normal_ok"`
	CriticalOK bool          `json:"critical_ok"`
	Dropped    []string      `json:"dropped"`
	Graphs     []graphReport `json:"graphs"`

	ScenariosAnalyzed int `json:"scenarios_analyzed"`
	ScenariosDeduped  int `json:"scenarios_deduped"`
}

// flight is one in-flight coalesced analysis: the leader computes,
// followers wait on done and replay the stored response.
type flight struct {
	done   chan struct{}
	status int
	body   []byte
}

// statusClientClosedRequest is the nginx-convention status for a
// request abandoned by its client before a response was ready.
const statusClientClosedRequest = 499

// waitFlight parks a handler on a flight until it settles or the
// requester gives up. Flights always settle eventually — Close fails
// every queued flight — but a gone client must release its handler
// goroutine and connection immediately, not when the queue drains. The
// flight keeps computing on cancellation: coalesced followers and the
// result cache still want the answer.
func waitFlight(w http.ResponseWriter, r *http.Request, f *flight) {
	select {
	case <-f.done:
		writeJSONBytes(w, f.status, f.body)
	case <-r.Context().Done():
		httpError(w, statusClientClosedRequest, "client closed request")
	}
}

// rawAnalyzeKey is the pre-decode identity of an /analyze request: the
// hash of the exact body bytes plus the encoded query (sorted by name,
// values escaped, repeated values kept apart, so ?drop=a&drop=b and
// ?drop=a,b stay distinct). Two requests with the same key are
// byte-identical, so a cached response can be replayed without even
// parsing the spec — the JSON decode, validation and fingerprinting
// that dominate a warm repeat's cost. Requests that spell the same spec
// differently miss this key and fall through to the canonical
// fingerprint below.
func rawAnalyzeKey(r *http.Request, body []byte) string {
	sum := sha256.Sum256(body)
	return "raw:" + string(sum[:]) + ";" + r.URL.Query().Encode()
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.stats.analyzeRequests.Add(1)
	rawBody, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	r.Body.Close()
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}

	// Fastest warm path: a byte-identical request already finished —
	// replay its marshaled response without parsing anything.
	rawKey := rawAnalyzeKey(r, rawBody)
	if body, ok := s.results.get(rawKey); ok {
		s.stats.resultHits.Add(1)
		writeJSONBytes(w, http.StatusOK, body)
		return
	}

	b := s.readSpecBytes(w, rawBody, true)
	if b == nil {
		return
	}
	params, err := resolveAnalyzeParams(r, b.spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := b.full + ";drop=" + params.dropKey

	// Canonical warm path: an identical request already finished under a
	// different byte spelling — replay its marshaled response without
	// touching the queue.
	if body, ok := s.results.get(key); ok {
		s.stats.resultHits.Add(1)
		s.results.put(rawKey, body) // alias this spelling for next time
		writeJSONBytes(w, http.StatusOK, body)
		return
	}

	// Coalesce: the first request with this key becomes the leader and
	// enqueues ONE analysis; every concurrent identical request joins
	// its flight and replays the shared response.
	s.mu.Lock()
	if f, ok := s.inflight[key]; ok {
		s.stats.coalesced.Add(1)
		s.mu.Unlock()
		waitFlight(w, r, f)
		return
	}
	f := &flight{done: make(chan struct{})}
	if s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	s.inflight[key] = f
	s.mu.Unlock()

	finish := func(status int, body []byte) {
		f.status, f.body = status, body
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(f.done)
	}

	err = s.enqueue(task{analyze: true, run: func() {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			finish(http.StatusServiceUnavailable, mustJSON(map[string]string{"error": "shutting down"}))
			return
		}
		status, body := s.runAnalyze(b, params)
		if status == http.StatusOK {
			s.results.put(key, body)
			s.results.put(rawKey, body)
		}
		finish(status, body)
	}})
	if err != nil {
		// Backpressure (or shutdown): fail the flight so coalesced
		// followers — who would have hit the same full queue — get the
		// same answer instead of hanging.
		status := http.StatusTooManyRequests
		if err != errQueueFull {
			status = http.StatusServiceUnavailable
		}
		finish(status, mustJSON(map[string]string{"error": err.Error()}))
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeJSONBytes(w, status, f.body)
		return
	}

	waitFlight(w, r, f)
}

// runAnalyze executes one coalesced analysis: compile, run Algorithm 1
// and marshal the response. Runs on a queue runner and borrows no pool
// slot: analysis concurrency is bounded by the runner count.
func (s *Server) runAnalyze(b *specBundle, params analyzeParams) (int, []byte) {
	s.stats.analyzeRuns.Add(1)
	sys, err := platform.Compile(b.spec.Architecture, b.spec.Apps, b.spec.Mapping, nil)
	if err != nil {
		return http.StatusUnprocessableEntity, mustJSON(map[string]string{"error": err.Error()})
	}
	rep, err := core.Analyze(sys, params.dropped, core.NewConfig())
	if err != nil {
		return http.StatusInternalServerError, mustJSON(map[string]string{"error": err.Error()})
	}

	resp := analyzeResponse{
		Feasible:          rep.Feasible(),
		NormalOK:          rep.NormalOK,
		CriticalOK:        rep.CriticalOK,
		Dropped:           []string{},
		ScenariosAnalyzed: rep.ScenariosAnalyzed,
		ScenariosDeduped:  rep.ScenariosDeduped,
	}
	for name := range params.dropped {
		resp.Dropped = append(resp.Dropped, name)
	}
	sort.Strings(resp.Dropped)
	for _, g := range b.spec.Apps.Graphs {
		class := "critical"
		if g.Droppable() {
			class = "droppable"
		}
		wcrt := rep.WCRTOf(g.Name)
		resp.Graphs = append(resp.Graphs, graphReport{
			Name:     g.Name,
			Class:    class,
			WCRT:     wcrt,
			Deadline: g.EffectiveDeadline(),
			Dropped:  params.dropped[g.Name],
			OK:       wcrt <= g.EffectiveDeadline(),
		})
	}
	return http.StatusOK, mustJSON(resp)
}

func mustJSON(v any) []byte {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Response types are plain data; a marshal failure is a bug.
		panic(err)
	}
	return append(body, '\n')
}
