package service

// Job persistence (Config.DataDir): every job's record — inputs,
// lifecycle state, per-generation events, result, newest barrier
// checkpoint — is mirrored to DataDir/jobs as <id>.json plus a binary
// <id>.ck, rewritten at submit, at every checkpoint and at settlement.
// On boot the daemon reloads the directory, so a restart loses no
// settled job and degrades an interrupted one to exactly what a crash
// mid-run should leave behind: a failed record holding the newest
// checkpoint, which POST /jobs/{id}/resume continues to a byte-identical
// final archive (the dse checkpoint contract).
//
// Writes are atomic (temp file + rename) so a crash mid-write leaves the
// previous record, never a torn one. Records that fail to decode on boot
// are skipped, not fatal: a corrupt record must not brick the daemon.

import (
	"encoding/json"
	"log"
	"os"
	"path/filepath"
	"strings"

	"mcmap/internal/dse"
)

// persistedJob is the on-disk job record. The spec is carried as the
// marshaled model.Spec — re-validated on load exactly like a request
// body — and the checkpoint lives next to it in <id>.ck (binary, too
// large and too opaque to inline in JSON).
type persistedJob struct {
	ID            string          `json:"id"`
	State         string          `json:"state"`
	Error         string          `json:"error,omitempty"`
	ResumedFrom   string          `json:"resumed_from,omitempty"`
	CheckpointGen int             `json:"checkpoint_gen,omitempty"`
	Params        persistedParams `json:"params"`
	Events        []dse.GenStat   `json:"events,omitempty"`
	Result        json.RawMessage `json:"result,omitempty"`
	Spec          json.RawMessage `json:"spec"`
}

// persistedParams mirrors dseParams with exported fields. The resume
// checkpoint is deliberately absent: a resumed job re-reads it from the
// originating job's record.
type persistedParams struct {
	Pop      int     `json:"pop"`
	Gens     int     `json:"gens"`
	Seed     int64   `json:"seed"`
	Islands  int     `json:"islands"`
	Interval int     `json:"migration_interval"`
	Mutation float64 `json:"mutation"`
	Track    bool    `json:"track"`
	NoDrop   bool    `json:"nodrop"`
}

func toPersistedParams(p dseParams) persistedParams {
	return persistedParams{Pop: p.pop, Gens: p.gens, Seed: p.seed,
		Islands: p.islands, Interval: p.interval, Mutation: p.mutation,
		Track: p.track, NoDrop: p.noDrop}
}

func (p persistedParams) params() dseParams {
	return dseParams{pop: p.Pop, gens: p.Gens, seed: p.Seed,
		islands: p.Islands, interval: p.Interval, mutation: p.Mutation,
		track: p.Track, noDrop: p.NoDrop}
}

func (s *Server) jobsDir() string { return filepath.Join(s.cfg.DataDir, "jobs") }

// persistJob rewrites the job's on-disk record. A no-op without DataDir.
// Persistence is best-effort by design: the daemon's in-memory state is
// authoritative for its own lifetime, and an unwritable data directory
// must degrade the daemon to memory-only operation, not fail jobs.
func (s *Server) persistJob(j *job) {
	if s.cfg.DataDir == "" {
		return
	}
	j.mu.Lock()
	rec := persistedJob{
		ID:            j.id,
		State:         j.state,
		Error:         j.errMsg,
		ResumedFrom:   j.resumed,
		CheckpointGen: j.ckGen,
		Params:        toPersistedParams(j.params),
		Events:        append([]dse.GenStat(nil), j.events...),
		Result:        json.RawMessage(j.result),
	}
	ck := append([]byte(nil), j.ck...)
	spec := j.spec.spec
	j.mu.Unlock()

	specBytes, err := json.Marshal(spec)
	if err != nil {
		log.Printf("service: persisting job %s: marshaling spec: %v", rec.ID, err)
		return
	}
	rec.Spec = specBytes
	body, err := json.Marshal(rec)
	if err != nil {
		log.Printf("service: persisting job %s: %v", rec.ID, err)
		return
	}
	dir := s.jobsDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("service: persisting job %s: %v", rec.ID, err)
		return
	}
	if err := atomicWrite(filepath.Join(dir, rec.ID+".json"), body); err != nil {
		log.Printf("service: persisting job %s: %v", rec.ID, err)
		return
	}
	if len(ck) > 0 {
		if err := atomicWrite(filepath.Join(dir, rec.ID+".ck"), ck); err != nil {
			log.Printf("service: persisting job %s checkpoint: %v", rec.ID, err)
		}
	}
}

// atomicWrite writes data so readers (and the reloading daemon) see
// either the old record or the new one, never a prefix.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadPersistedJobs reloads DataDir/jobs into the job table. Jobs that
// were queued or running when the daemon died become failed — their run
// state is gone — but keep their newest checkpoint, so they resume like
// any failed job. The ID counter advances past every reloaded ID so new
// jobs never collide with history.
func (s *Server) loadPersistedJobs() {
	dir := s.jobsDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Printf("service: reading job records: %v", err)
		}
		return
	}
	maxID := 0
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			log.Printf("service: reading job record %s: %v", name, err)
			continue
		}
		var rec persistedJob
		if err := json.Unmarshal(body, &rec); err != nil {
			log.Printf("service: decoding job record %s: %v", name, err)
			continue
		}
		if rec.ID == "" || !strings.HasPrefix(rec.ID, "j") {
			log.Printf("service: job record %s has no usable id", name)
			continue
		}
		b, err := decodeSpecBundle(rec.Spec)
		if err != nil {
			log.Printf("service: job record %s spec: %v", name, err)
			continue
		}
		j := &job{
			id:      rec.ID,
			cancel:  func() {},
			state:   rec.State,
			errMsg:  rec.Error,
			events:  rec.Events,
			subs:    make(map[chan jobEvent]bool),
			result:  []byte(rec.Result),
			ckGen:   rec.CheckpointGen,
			resumed: rec.ResumedFrom,
			spec:    b,
			params:  rec.Params.params(),
		}
		if ck, err := os.ReadFile(filepath.Join(dir, rec.ID+".ck")); err == nil {
			j.ck = ck
		}
		if j.state == stateQueued || j.state == stateRunning {
			j.state = stateFailed
			j.errMsg = "daemon restarted while the job was " + rec.State +
				"; resume from its checkpoint if one was captured"
			s.persistJob(j)
		}
		s.jobs.restore(j)
		if n := jobNum(rec.ID); n > maxID {
			maxID = n
		}
	}
	s.jobs.ensureNext(maxID)
}
