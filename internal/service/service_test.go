package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmap/internal/benchmarks"
	"mcmap/internal/model"
)

// mappedSpec builds a small problem WITH a mapping (the /analyze input).
func mappedSpec(t testing.TB) *model.Spec {
	t.Helper()
	b := benchmarks.Synth(benchmarks.SynthConfig{
		Name: "svc", Procs: 4,
		CriticalApps: 1, DroppableApps: 2,
		MinTasks: 3, MaxTasks: 5,
		Seed: 9,
	})
	man, err := b.Hardened()
	if err != nil {
		t.Fatalf("hardening: %v", err)
	}
	return &model.Spec{
		Architecture: b.Arch,
		Apps:         man.Apps,
		Mapping:      b.SampleMapping(man, benchmarks.MapLoadBalance),
	}
}

// problemSpec builds a problem WITHOUT a mapping (the /dse input).
func problemSpec(t testing.TB, seed int64) *model.Spec {
	t.Helper()
	b := benchmarks.Synth(benchmarks.SynthConfig{
		Name: "svc-dse", Procs: 4,
		CriticalApps: 1, DroppableApps: 2,
		MinTasks: 3, MaxTasks: 5,
		Seed: seed,
	})
	return &model.Spec{Architecture: b.Arch, Apps: b.Apps}
}

func specJSON(t testing.TB, spec *model.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := spec.WriteJSON(&buf); err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	return buf.Bytes()
}

func do(s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	return rr
}

// blockRunners occupies every queue runner with analyze tasks that wait
// on the returned channel, so queued work cannot start until release.
func blockRunners(t *testing.T, s *Server, n int) (release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	started := make(chan struct{}, n)
	// One at a time: pushing the next blocker only after the previous one
	// is RUNNING keeps the queue empty, so this works at any QueueDepth.
	for i := 0; i < n; i++ {
		err := s.enqueue(task{analyze: true, run: func() {
			started <- struct{}{}
			<-release
		}})
		if err != nil {
			t.Fatalf("enqueue blocker: %v", err)
		}
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("runners did not pick up blocker tasks")
		}
	}
	return release
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAnalyzeCoalescing pins the coalescing contract: N concurrent
// identical requests run exactly ONE analysis, and every caller gets the
// same 200 response. The runners are blocked so the in-flight window
// provably spans all N arrivals.
func TestAnalyzeCoalescing(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16}, nil)
	defer s.Close()
	body := specJSON(t, mappedSpec(t))

	release := blockRunners(t, s, 2)
	const n = 6
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := do(s, http.MethodPost, "/analyze", body)
			codes[i], bodies[i] = rr.Code, rr.Body.Bytes()
		}(i)
	}
	// One leader registers the flight, the other n-1 join it; only then
	// may the analysis run.
	waitFor(t, "followers to coalesce", func() bool { return s.stats.coalesced.Load() == n-1 })
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: response differs from request 0", i)
		}
	}
	if runs := s.stats.analyzeRuns.Load(); runs != 1 {
		t.Fatalf("analyzeRuns = %d, want exactly 1 (coalescing broken)", runs)
	}
	if co := s.stats.coalesced.Load(); co != n-1 {
		t.Fatalf("coalesced = %d, want %d", co, n-1)
	}
	var resp analyzeResponse
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatalf("response is not an analyzeResponse: %v", err)
	}
	if resp.ScenariosAnalyzed == 0 {
		t.Fatal("response reports zero scenarios analyzed")
	}
}

// TestAnalyzeWarmRepeat pins the result cache: a repeated identical
// request replays the stored bytes without re-running the analysis, and
// a request with different parameters is a distinct key.
func TestAnalyzeWarmRepeat(t *testing.T) {
	s := New(Config{Workers: 2}, nil)
	defer s.Close()
	body := specJSON(t, mappedSpec(t))

	cold := do(s, http.MethodPost, "/analyze", body)
	if cold.Code != http.StatusOK {
		t.Fatalf("cold: status %d, body %s", cold.Code, cold.Body.String())
	}
	warm := do(s, http.MethodPost, "/analyze", body)
	if warm.Code != http.StatusOK {
		t.Fatalf("warm: status %d", warm.Code)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("warm response differs from cold response")
	}
	if runs := s.stats.analyzeRuns.Load(); runs != 1 {
		t.Fatalf("analyzeRuns = %d after repeat, want 1", runs)
	}
	if hits := s.stats.resultHits.Load(); hits != 1 {
		t.Fatalf("resultHits = %d, want 1", hits)
	}

	// Different parameters → different key → a second analysis.
	other := do(s, http.MethodPost, "/analyze?drop=", body)
	if other.Code != http.StatusOK {
		t.Fatalf("drop=: status %d", other.Code)
	}
	if runs := s.stats.analyzeRuns.Load(); runs != 2 {
		t.Fatalf("analyzeRuns = %d after drop= variant, want 2", runs)
	}
}

// TestAnalyzeRawKeySeparatesRepeatedValues pins that the raw-bytes
// result cache tells repeated query values from one comma-joined value.
// /analyze reads only the first value of a repeated parameter, so
// ?drop=a&drop=b drops a while ?drop=a,b drops both; the second must
// not replay the first's cached answer.
func TestAnalyzeRawKeySeparatesRepeatedValues(t *testing.T) {
	spec := mappedSpec(t)
	var soft []string
	for _, g := range spec.Apps.Graphs {
		if g.Droppable() {
			soft = append(soft, g.Name)
		}
	}
	if len(soft) < 2 {
		t.Fatalf("fixture has %d droppable graphs, want 2", len(soft))
	}
	body := specJSON(t, spec)
	post := func(s *Server, target string) []byte {
		t.Helper()
		rr := do(s, http.MethodPost, target, body)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", target, rr.Code, rr.Body.String())
		}
		return rr.Body.Bytes()
	}

	for _, tc := range []struct{ first, second string }{
		{"/analyze?drop=" + soft[0] + "&drop=" + soft[1], "/analyze?drop=" + soft[0] + "," + soft[1]},
	} {
		s := New(Config{Workers: 1}, nil)
		post(s, tc.first)
		got := post(s, tc.second)
		fresh := New(Config{Workers: 1}, nil)
		want := post(fresh, tc.second)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s after %s replayed\n%s\na fresh server answers\n%s", tc.second, tc.first, got, want)
		}
		if runs := s.stats.analyzeRuns.Load(); runs != 2 {
			t.Fatalf("%s after %s: %d analyses run, want 2", tc.second, tc.first, runs)
		}
		s.Close()
		fresh.Close()
	}
}

// TestAnalyzeRejectsOversizedHyperperiod pins admission of a small spec
// whose periods unroll to ~100k jobs: validation answers 422 with the
// MC0126 diagnostic before anything is compiled or queued.
func TestAnalyzeRejectsOversizedHyperperiod(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "validate", "testdata", "oversized_hyperperiod.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1}, nil)
	defer s.Close()
	rr := do(s, http.MethodPost, "/analyze", body)
	if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), "MC0126") {
		t.Fatalf("status %d, body %s; want 422 naming MC0126", rr.Code, rr.Body.String())
	}
	var stats struct {
		Analyze map[string]int64 `json:"analyze"`
	}
	if err := json.Unmarshal(do(s, http.MethodGet, "/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Analyze["runs"] != 0 {
		t.Fatalf("analyze.runs = %d after a rejected spec, want 0", stats.Analyze["runs"])
	}
}

// TestBackpressure pins the 429 contract: with the queue full, both
// /analyze and /dse reject with 429 and a Retry-After hint, and the
// rejection is counted.
func TestBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1}, nil)
	defer s.Close()
	release := blockRunners(t, s, 2)
	defer close(release)

	dseBody := specJSON(t, problemSpec(t, 3))
	first := do(s, http.MethodPost, "/dse?pop=4&gens=2", dseBody)
	if first.Code != http.StatusAccepted {
		t.Fatalf("first /dse: status %d, body %s", first.Code, first.Body.String())
	}

	second := do(s, http.MethodPost, "/dse?pop=4&gens=2", dseBody)
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("second /dse: status %d, want 429", second.Code)
	}
	if second.Header().Get("Retry-After") == "" {
		t.Fatal("429 response has no Retry-After header")
	}

	an := do(s, http.MethodPost, "/analyze", specJSON(t, mappedSpec(t)))
	if an.Code != http.StatusTooManyRequests {
		t.Fatalf("/analyze with full queue: status %d, want 429", an.Code)
	}
	if an.Header().Get("Retry-After") == "" {
		t.Fatal("/analyze 429 response has no Retry-After header")
	}
	if rej := s.stats.rejected.Load(); rej != 2 {
		t.Fatalf("rejected = %d, want 2", rej)
	}
}

func jobState(t *testing.T, s *Server, id string) jobStatus {
	t.Helper()
	rr := do(s, http.MethodGet, "/jobs/"+id, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, rr.Code)
	}
	var st jobStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("job status: %v", err)
	}
	return st
}

func submitJob(t *testing.T, s *Server, target string, body []byte) string {
	t.Helper()
	rr := do(s, http.MethodPost, target, body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("POST %s: status %d, body %s", target, rr.Code, rr.Body.String())
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &ack); err != nil || ack.ID == "" {
		t.Fatalf("bad 202 body %s: %v", rr.Body.String(), err)
	}
	return ack.ID
}

// TestDSEJobLifecycle runs one job to completion and checks the job
// record, the result payload and the event replay.
func TestDSEJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 2}, nil)
	defer s.Close()

	const gens = 5
	id := submitJob(t, s, fmt.Sprintf("/dse?pop=8&gens=%d&seed=3", gens), specJSON(t, problemSpec(t, 3)))
	waitFor(t, "job to finish", func() bool { return jobState(t, s, id).State == stateDone })

	st := jobState(t, s, id)
	if st.Generations != gens+1 { // generation 0 is recorded too
		t.Fatalf("recorded %d generations, want %d", st.Generations, gens+1)
	}
	var result dseResult
	if err := json.Unmarshal(st.Result, &result); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if result.Evaluated == 0 {
		t.Fatal("result reports zero evaluated candidates")
	}
	if result.Feasible && result.Best.Spec == nil {
		t.Fatal("feasible result has no best spec")
	}

	// The event replay of a finished job: gens+1 "gen" events, then the
	// terminal "done" event, as NDJSON.
	rr := do(s, http.MethodGet, "/jobs/"+id+"/events", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("events: status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	if len(types) != gens+2 || types[len(types)-1] != "done" {
		t.Fatalf("event stream = %v, want %d gen events then done", types, gens+1)
	}

	// The listing includes the job (result omitted).
	list := do(s, http.MethodGet, "/jobs", nil)
	if list.Code != http.StatusOK || !strings.Contains(list.Body.String(), `"`+id+`"`) {
		t.Fatalf("GET /jobs (status %d) does not list %s: %s", list.Code, id, list.Body.String())
	}
	if missing := do(s, http.MethodGet, "/jobs/nope", nil); missing.Code != http.StatusNotFound {
		t.Fatalf("GET /jobs/nope: status %d, want 404", missing.Code)
	}
}

// TestCancelQueuedJob pins the queued-cancellation path: the runner must
// skip a job cancelled before it started, and a job with no checkpoint
// must refuse to resume.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4}, nil)
	defer s.Close()
	release := blockRunners(t, s, 2)

	id := submitJob(t, s, "/dse?pop=4&gens=2", specJSON(t, problemSpec(t, 3)))
	rr := do(s, http.MethodPost, "/jobs/"+id+"/cancel", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel: status %d", rr.Code)
	}
	close(release)
	waitFor(t, "cancelled state", func() bool { return jobState(t, s, id).State == stateCancelled })

	// No barrier was reached, so there is nothing to resume from.
	res := do(s, http.MethodPost, "/jobs/"+id+"/resume", nil)
	if res.Code != http.StatusConflict {
		t.Fatalf("resume without checkpoint: status %d, want 409", res.Code)
	}
	if n := s.stats.jobsCancelled.Load(); n != 1 {
		t.Fatalf("jobsCancelled = %d, want 1", n)
	}
}

// TestCancelResumeMatchesUninterrupted is the service-level checkpoint
// contract: cancel a running job past its first migration barrier,
// resume it, and the resumed job's result (best design and Pareto front)
// must match an uninterrupted run of the same request exactly.
func TestCancelResumeMatchesUninterrupted(t *testing.T) {
	s := New(Config{Workers: 4, Runners: 3}, nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A problem large enough that one generation takes tens of
	// milliseconds: the cancel below must land mid-run, with most of the
	// 40 generations still ahead of it.
	slow := benchmarks.Synth(benchmarks.SynthConfig{
		Name: "svc-slow", Procs: 6,
		CriticalApps: 2, DroppableApps: 3,
		MinTasks: 5, MaxTasks: 8,
		Seed: 5,
	})
	spec := specJSON(t, &model.Spec{Architecture: slow.Arch, Apps: slow.Apps})
	const params = "pop=32&gens=40&migration_interval=5&seed=7"

	post := func(path string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(spec))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}
	readJSON := func(resp *http.Response, v any) {
		t.Helper()
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}

	var ack struct {
		ID string `json:"id"`
	}
	readJSON(post("/dse?"+params), &ack)
	if ack.ID == "" {
		t.Fatal("no job id in 202 response")
	}

	// Follow the live event stream; once the run is past the first
	// barrier (gen >= 8 > interval 5), cancel it mid-flight.
	events, err := http.Get(ts.URL + "/jobs/" + ack.ID + "/events")
	if err != nil {
		t.Fatalf("events stream: %v", err)
	}
	cancelled := false
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		if ev.Type == "gen" && ev.Gen.Gen >= 8 && !cancelled {
			resp := post("/jobs/" + ack.ID + "/cancel")
			resp.Body.Close()
			cancelled = true
		}
		if ev.Type != "gen" {
			break
		}
	}
	events.Body.Close()
	if !cancelled {
		t.Fatal("job finished before the stream reached generation 8; enlarge the problem")
	}
	waitFor(t, "cancelled state", func() bool { return jobState(t, s, ack.ID).State == stateCancelled })
	st := jobState(t, s, ack.ID)
	if st.CheckpointGen < 5 {
		t.Fatalf("checkpoint_gen = %d, want >= 5 (first barrier)", st.CheckpointGen)
	}

	// Resume; the new job must run to completion.
	var resumedAck struct {
		ID string `json:"id"`
	}
	readJSON(post("/jobs/"+ack.ID+"/resume"), &resumedAck)
	if resumedAck.ID == "" || resumedAck.ID == ack.ID {
		t.Fatalf("resume returned id %q", resumedAck.ID)
	}
	waitFor(t, "resumed job", func() bool { return jobState(t, s, resumedAck.ID).State == stateDone })
	resumedSt := jobState(t, s, resumedAck.ID)
	if resumedSt.ResumedFrom != ack.ID {
		t.Fatalf("resumed_from = %q, want %q", resumedSt.ResumedFrom, ack.ID)
	}

	// Reference: the same request, uninterrupted.
	var refAck struct {
		ID string `json:"id"`
	}
	readJSON(post("/dse?"+params), &refAck)
	waitFor(t, "reference job", func() bool { return jobState(t, s, refAck.ID).State == stateDone })

	var resumed, ref dseResult
	if err := json.Unmarshal(resumedSt.Result, &resumed); err != nil {
		t.Fatalf("resumed result: %v", err)
	}
	if err := json.Unmarshal(jobState(t, s, refAck.ID).Result, &ref); err != nil {
		t.Fatalf("reference result: %v", err)
	}
	// Archive-derived fields must match exactly.
	resumedBest, _ := json.Marshal(resumed.Best)
	refBest, _ := json.Marshal(ref.Best)
	if !bytes.Equal(resumedBest, refBest) {
		t.Fatalf("resumed best differs from uninterrupted run:\n%s\nvs\n%s", resumedBest, refBest)
	}
	resumedFront, _ := json.Marshal(resumed.Front)
	refFront, _ := json.Marshal(ref.Front)
	if !bytes.Equal(resumedFront, refFront) {
		t.Fatalf("resumed front differs from uninterrupted run:\n%s\nvs\n%s", resumedFront, refFront)
	}
	if resumed.Migrations != ref.Migrations {
		t.Fatalf("migrations: resumed %d, reference %d", resumed.Migrations, ref.Migrations)
	}
}

// TestStatsAndHealth sanity-checks the observability endpoints.
func TestStatsAndHealth(t *testing.T) {
	s := New(Config{Workers: 1}, nil)
	defer s.Close()

	if rr := do(s, http.MethodGet, "/healthz", nil); rr.Code != http.StatusOK {
		t.Fatalf("/healthz: status %d", rr.Code)
	}
	do(s, http.MethodPost, "/analyze", specJSON(t, mappedSpec(t)))
	do(s, http.MethodPost, "/analyze", specJSON(t, mappedSpec(t)))

	rr := do(s, http.MethodGet, "/stats", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/stats: status %d", rr.Code)
	}
	var stats struct {
		Analyze map[string]int64 `json:"analyze"`
		Jobs    map[string]int64 `json:"jobs"`
		Queue   map[string]int64 `json:"queue"`
		Fleet   map[string]int64 `json:"fleet"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if stats.Analyze["requests"] != 2 || stats.Analyze["runs"] != 1 || stats.Analyze["result_hits"] != 1 {
		t.Fatalf("analyze stats = %v, want requests=2 runs=1 result_hits=1", stats.Analyze)
	}
	// One canonical and one raw-bytes entry for the single distinct
	// request.
	if stats.Analyze["cached"] != 2 {
		t.Fatalf("analyze.cached = %d, want 2", stats.Analyze["cached"])
	}
	if _, ok := stats.Fleet["bytes_in"]; !ok {
		t.Fatalf("fleet stats missing transport counters: %v", stats.Fleet)
	}
}

// TestBadRequests pins the input-validation status codes.
func TestBadRequests(t *testing.T) {
	s := New(Config{Workers: 1}, nil)
	defer s.Close()

	if rr := do(s, http.MethodPost, "/analyze", []byte("{not json")); rr.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", rr.Code)
	}
	if rr := do(s, http.MethodPost, "/analyze", specJSON(t, problemSpec(t, 3))); rr.Code != http.StatusBadRequest {
		t.Fatalf("mapping-less /analyze: status %d, want 400", rr.Code)
	}
	if rr := do(s, http.MethodPost, "/dse?pop=banana", specJSON(t, problemSpec(t, 3))); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad pop: status %d, want 400", rr.Code)
	}

	// A drop list naming a missing or a non-droppable graph is rejected
	// up front, listing every bad name, and never reaches the queue.
	spec := mappedSpec(t)
	critical := ""
	for _, g := range spec.Apps.Graphs {
		if !g.Droppable() {
			critical = g.Name
			break
		}
	}
	if critical == "" {
		t.Fatal("fixture has no non-droppable graph")
	}
	for _, tc := range []struct{ drop, want string }{
		{"nosuch", `"nosuch" (no such graph)`},
		{critical, strconv.Quote(critical) + " (not droppable)"},
		{"nosuch," + critical, `"nosuch" (no such graph), ` + strconv.Quote(critical) + " (not droppable)"},
	} {
		rr := do(s, http.MethodPost, "/analyze?drop="+url.QueryEscape(tc.drop), specJSON(t, spec))
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("drop=%s: status %d, want 400 (%s)", tc.drop, rr.Code, rr.Body.String())
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("drop=%s: error payload: %v", tc.drop, err)
		}
		if !strings.Contains(body.Error, tc.want) {
			t.Fatalf("drop=%s: error %q does not list %s", tc.drop, body.Error, tc.want)
		}
	}
	// Unknown query keys — misspellings and the removed prune parameter
	// — are rejected and named, on both endpoints.
	for _, tc := range []struct {
		path string
		body []byte
		want string
	}{
		{"/analyze?dorp=best0", specJSON(t, spec), `"dorp"`},
		{"/analyze?prune=1", specJSON(t, spec), `"prune"`},
		{"/analyze?drop=&prune=0&x=1", specJSON(t, spec), `"prune", "x"`},
		{"/dse?pop=4&gens=1&popp=99", specJSON(t, problemSpec(t, 3)), `"popp"`},
		{"/dse?prune=1", specJSON(t, problemSpec(t, 3)), `"prune"`},
	} {
		rr := do(s, http.MethodPost, tc.path, tc.body)
		if rr.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.path, rr.Code, rr.Body.String())
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: error payload: %v", tc.path, err)
		}
		if !strings.Contains(body.Error, "unknown query parameter "+tc.want) {
			t.Fatalf("%s: error %q does not name %s", tc.path, body.Error, tc.want)
		}
	}
	if runs := s.stats.analyzeRuns.Load(); runs != 0 {
		t.Fatalf("rejected requests ran %d analyses", runs)
	}
	if n := len(s.jobs.all()); n != 0 {
		t.Fatalf("rejected requests created %d jobs", n)
	}
}

// TestDSERejectsHardeningIDCollision: a spec holding a task next to its
// own replica ID (MC0127) used to pass validation and then panic the
// DSE on its first replication, taking the daemon down. /dse now answers
// 422 naming MC0127, and the server keeps answering.
func TestDSERejectsHardeningIDCollision(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "validate", "testdata", "hardening_id_collision.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1}, nil)
	defer s.Close()
	rr := do(s, http.MethodPost, "/dse?pop=4&gens=1", body)
	if rr.Code != http.StatusUnprocessableEntity || !strings.Contains(rr.Body.String(), "MC0127") {
		t.Fatalf("status %d, body %s; want 422 naming MC0127", rr.Code, rr.Body.String())
	}
	if rr := do(s, http.MethodGet, "/healthz", nil); rr.Code != http.StatusOK {
		t.Fatalf("/healthz after the rejected spec: status %d", rr.Code)
	}
	if rr := do(s, http.MethodPost, "/dse?pop=4&gens=1", specJSON(t, problemSpec(t, 3))); rr.Code != http.StatusAccepted {
		t.Fatalf("/dse after the rejected spec: status %d, body %s", rr.Code, rr.Body.String())
	}
}
