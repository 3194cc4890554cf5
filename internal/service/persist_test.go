package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/model"
)

// TestRestartResumeFromPersistedCheckpoint is the persistence contract
// end to end: a job cancelled mid-run on one daemon instance is resumed
// on a FRESH instance booted from the same data directory, and the
// resumed result matches an uninterrupted run of the same request
// exactly — the checkpoint survived the restart byte-for-byte.
func TestRestartResumeFromPersistedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 4, Runners: 3, DataDir: dir}

	slow := benchmarks.Synth(benchmarks.SynthConfig{
		Name: "svc-persist", Procs: 6,
		CriticalApps: 2, DroppableApps: 3,
		MinTasks: 5, MaxTasks: 8,
		Seed: 5,
	})
	spec := specJSON(t, &model.Spec{Architecture: slow.Arch, Apps: slow.Apps})
	const params = "pop=32&gens=40&migration_interval=5&seed=7"

	s1 := New(cfg, nil)
	ts1 := httptest.NewServer(s1.Handler())

	post := func(ts *httptest.Server, path string) *http.Response {
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
	readJSON(post(ts1, "/dse?"+params), &ack)
	if ack.ID == "" {
		t.Fatal("no job id in 202 response")
	}

	// Cancel once past the first migration barrier, so a checkpoint
	// exists to persist.
	events, err := http.Get(ts1.URL + "/jobs/" + ack.ID + "/events")
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
			resp := post(ts1, "/jobs/"+ack.ID+"/cancel")
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
	waitFor(t, "cancelled state", func() bool { return jobState(t, s1, ack.ID).State == stateCancelled })
	if g := jobState(t, s1, ack.ID).CheckpointGen; g < 5 {
		t.Fatalf("checkpoint_gen = %d, want >= 5 (first barrier)", g)
	}

	// "Restart": tear the first daemon down, boot a second on the same
	// data directory.
	ts1.Close()
	s1.Close()
	s2 := New(cfg, nil)
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The record survived with its checkpoint.
	st := jobState(t, s2, ack.ID)
	if st.State != stateCancelled {
		t.Fatalf("reloaded job state = %q, want %q", st.State, stateCancelled)
	}
	if st.CheckpointGen < 5 {
		t.Fatalf("reloaded checkpoint_gen = %d, want >= 5", st.CheckpointGen)
	}
	if st.Generations == 0 {
		t.Fatal("reloaded job lost its generation events")
	}

	// Resume on the new daemon and compare with an uninterrupted run.
	var resumedAck struct {
		ID string `json:"id"`
	}
	readJSON(post(ts2, "/jobs/"+ack.ID+"/resume"), &resumedAck)
	if resumedAck.ID == "" || resumedAck.ID == ack.ID {
		t.Fatalf("resume returned id %q", resumedAck.ID)
	}
	waitFor(t, "resumed job", func() bool { return jobState(t, s2, resumedAck.ID).State == stateDone })

	var refAck struct {
		ID string `json:"id"`
	}
	readJSON(post(ts2, "/dse?"+params), &refAck)
	waitFor(t, "reference job", func() bool { return jobState(t, s2, refAck.ID).State == stateDone })

	var resumed, ref dseResult
	if err := json.Unmarshal(jobState(t, s2, resumedAck.ID).Result, &resumed); err != nil {
		t.Fatalf("resumed result: %v", err)
	}
	if err := json.Unmarshal(jobState(t, s2, refAck.ID).Result, &ref); err != nil {
		t.Fatalf("reference result: %v", err)
	}
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
}

// TestRestartMarksInterruptedJobsFailed pins the crash semantics: a
// record persisted in a non-terminal state (the daemon died while the
// job was queued or running) reloads as failed-with-explanation, and the
// ID counter advances past reloaded history so new jobs never collide.
func TestRestartMarksInterruptedJobsFailed(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, DataDir: dir}

	s1 := New(cfg, nil)
	b, err := decodeSpecBundle(specJSON(t, problemSpec(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	// White-box crash simulation: persist a record frozen in the running
	// state, exactly what a daemon killed mid-run leaves behind.
	crashed := &job{
		id:     "j7",
		cancel: func() {},
		state:  stateRunning,
		subs:   make(map[chan jobEvent]bool),
		spec:   b,
		params: dseParams{pop: 8, gens: 4, seed: 1, islands: 1, interval: 2},
	}
	s1.persistJob(crashed)
	s1.Close()

	s2 := New(cfg, nil)
	defer s2.Close()
	st := jobState(t, s2, "j7")
	if st.State != stateFailed {
		t.Fatalf("interrupted job state = %q, want %q", st.State, stateFailed)
	}
	if !strings.Contains(st.Error, "daemon restarted") {
		t.Fatalf("interrupted job error = %q, want a restart explanation", st.Error)
	}

	// A fresh submission must mint an ID past the reloaded history.
	rr := do(s2, http.MethodPost, "/dse?pop=8&gens=2&seed=1", specJSON(t, problemSpec(t, 3)))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("POST /dse: status %d", rr.Code)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if jobNum(ack.ID) <= 7 {
		t.Fatalf("new job id %q does not clear reloaded history (j7)", ack.ID)
	}
	waitFor(t, "new job", func() bool { return jobState(t, s2, ack.ID).State == stateDone })

	// The finished job's record survives a further restart with its
	// result intact.
	s2.Close()
	s3 := New(cfg, nil)
	defer s3.Close()
	st3 := jobState(t, s3, ack.ID)
	if st3.State != stateDone || len(st3.Result) == 0 {
		t.Fatalf("finished job after restart: state %q result %d bytes", st3.State, len(st3.Result))
	}
}

// TestResumeFromEarlierReleaseDataDir pins compatibility with data
// directories written before the DSE caches were removed:
// testdata/restart holds one job record (j1, cancelled past its first
// migration barrier) whose persisted GenStat events and gob checkpoint
// still carry the fitness- and structural-cache counter fields. A
// daemon booted on a copy of that directory must reload the job and
// resume it to exactly the result an uninterrupted run of the same
// request computes today.
func TestResumeFromEarlierReleaseDataDir(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "restart", "jobs")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := os.ReadFile(filepath.Join(src, "j1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var persisted persistedJob
	if err := json.Unmarshal(rec, &persisted); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 4, Runners: 3, DataDir: dir}, nil)
	defer s.Close()
	st := jobState(t, s, "j1")
	if st.State != stateCancelled || st.CheckpointGen < 5 || st.Generations == 0 {
		t.Fatalf("reloaded job = %+v, want a cancelled job with a checkpoint and events", st)
	}

	submit := func(target string, body []byte) string {
		t.Helper()
		rr := do(s, http.MethodPost, target, body)
		if rr.Code != http.StatusAccepted {
			t.Fatalf("POST %s: status %d: %s", target, rr.Code, rr.Body.String())
		}
		var ack struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &ack); err != nil {
			t.Fatal(err)
		}
		waitFor(t, target, func() bool { return jobState(t, s, ack.ID).State == stateDone })
		return ack.ID
	}
	resumed := submit("/jobs/j1/resume", nil)
	p := persisted.Params
	ref := submit(fmt.Sprintf("/dse?pop=%d&gens=%d&seed=%d&islands=%d&migration_interval=%d",
		p.Pop, p.Gens, p.Seed, p.Islands, p.Interval), persisted.Spec)

	got, want := jobState(t, s, resumed).Result, jobState(t, s, ref).Result
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from an uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}
