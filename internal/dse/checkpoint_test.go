package dse

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mcmap/internal/workpool"
)

// ckOpts is the shared run shape of the checkpoint tests: long enough for
// two interior migration barriers (checkpoints at generations 4 and 8 of
// 12), small enough to stay fast.
func ckOpts(islands int) Options {
	return Options{
		PopSize:           10,
		ArchiveSize:       8,
		Generations:       12,
		MigrationInterval: 4,
		Seed:              42,
		Workers:           2,
		Islands:           islands,
	}
}

// archiveBytes canonicalizes a run outcome for byte-identity comparison:
// the gob encoding of the final Pareto front plus the best individual.
func archiveBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	ck := Checkpoint{Islands: []IslandCheckpoint{{Archive: res.Front}}}
	if res.Best != nil {
		ck.Islands[0].Archive = append(ck.Islands[0].Archive, res.Best)
	}
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointResumeDeterminism pins the headline checkpoint contract:
// a run killed at a migration barrier and resumed from the serialized
// checkpoint produces a byte-identical final archive to the uninterrupted
// run, for both the single-island and the multi-island engine.
func TestCheckpointResumeDeterminism(t *testing.T) {
	for _, islands := range []int{1, 3} {
		t.Run(map[int]string{1: "single-island", 3: "three-islands"}[islands], func(t *testing.T) {
			p := tinyProblem(t)

			// Uninterrupted run, capturing every barrier checkpoint through
			// the wire format (Encode/Decode round trip, as the daemon does).
			var encoded [][]byte
			opts := ckOpts(islands)
			opts.CheckpointSink = func(ck *Checkpoint) error {
				var buf bytes.Buffer
				if err := ck.Encode(&buf); err != nil {
					return err
				}
				encoded = append(encoded, buf.Bytes())
				return nil
			}
			full, err := Optimize(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantBarriers := (opts.Generations - 1) / opts.MigrationInterval
			if len(encoded) != wantBarriers {
				t.Fatalf("captured %d checkpoints, want %d", len(encoded), wantBarriers)
			}
			want := archiveBytes(t, full)

			// Resume from every barrier; each must reproduce the archive.
			for i, raw := range encoded {
				ck, err := DecodeCheckpoint(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				ropts := ckOpts(islands)
				ropts.Resume = ck
				resumed, err := Optimize(p, ropts)
				if err != nil {
					t.Fatalf("resume from barrier %d (gen %d): %v", i, ck.Gen, err)
				}
				if got := archiveBytes(t, resumed); !bytes.Equal(got, want) {
					t.Errorf("resume from gen %d: final archive differs from uninterrupted run (%d vs %d bytes)",
						ck.Gen, len(got), len(want))
				}
				if resumed.Stats.Migrations != full.Stats.Migrations {
					t.Errorf("resume from gen %d: Migrations = %d, want %d",
						ck.Gen, resumed.Stats.Migrations, full.Stats.Migrations)
				}
				if len(resumed.History) != len(full.History) {
					t.Errorf("resume from gen %d: history has %d entries, want %d",
						ck.Gen, len(resumed.History), len(full.History))
				}
			}
		})
	}
}

// firstCheckpoint runs ckOpts(1) and returns a decoder of its first
// barrier checkpoint, which yields a fresh copy per call.
func firstCheckpoint(t *testing.T, p *Problem) func() *Checkpoint {
	t.Helper()
	opts := ckOpts(1)
	var raw bytes.Buffer
	captured := false
	opts.CheckpointSink = func(ck *Checkpoint) error {
		if !captured {
			captured = true
			return ck.Encode(&raw)
		}
		return nil
	}
	if _, err := Optimize(p, opts); err != nil {
		t.Fatal(err)
	}
	return func() *Checkpoint {
		ck, err := DecodeCheckpoint(bytes.NewReader(raw.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
}

// TestResumeValidation pins the refusal paths: a checkpoint from another
// problem, other options, a tampered generation or a wrong schema version
// must be rejected before any evolution happens.
func TestResumeValidation(t *testing.T) {
	p := tinyProblem(t)
	decode := firstCheckpoint(t, p)

	cases := map[string]func(o *Options, ck *Checkpoint){
		"different-seed":        func(o *Options, ck *Checkpoint) { o.Seed++ },
		"different-generations": func(o *Options, ck *Checkpoint) { o.Generations *= 2 },
		"island-count":          func(o *Options, ck *Checkpoint) { o.Islands = 2 },
		"tampered-gen":          func(o *Options, ck *Checkpoint) { ck.Gen++ },
		"past-the-end":          func(o *Options, ck *Checkpoint) { ck.Gen = o.Generations },
		"wrong-fingerprint":     func(o *Options, ck *Checkpoint) { ck.SpecFingerprint = "bogus" },
	}
	for name, tamper := range cases {
		ropts := ckOpts(1)
		ck := decode()
		tamper(&ropts, ck)
		ropts.Resume = ck
		if _, err := Optimize(p, ropts); err == nil {
			t.Errorf("%s: resume accepted, want refusal", name)
		}
	}

	// Version guard lives in DecodeCheckpoint too.
	ck := decode()
	ck.Version = checkpointVersion + 1
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(&buf); err == nil {
		t.Error("DecodeCheckpoint accepted a future schema version")
	}

	// Distributed runs cannot checkpoint or resume.
	dopts := ckOpts(2)
	dopts.Distributed = true
	dopts.CheckpointSink = func(*Checkpoint) error { return nil }
	if _, err := Optimize(p, dopts); err == nil {
		t.Error("Distributed+CheckpointSink accepted, want refusal")
	}
}

// TestResumeRefusesPrunedCheckpoint: runs of earlier releases that
// skipped dominated fault scenarios signed their checkpoints with
// prune=true. No run prunes any more, so such a checkpoint is refused
// with the options-mismatch error, while the prune=false signature of
// every other run still resumes.
func TestResumeRefusesPrunedCheckpoint(t *testing.T) {
	p := tinyProblem(t)
	decode := firstCheckpoint(t, p)
	ck := decode()
	if !strings.Contains(ck.OptsSig, ";prune=false;") {
		t.Fatalf("options signature %q lacks prune=false", ck.OptsSig)
	}
	ropts := ckOpts(1)
	ropts.Resume = ck
	if _, err := Optimize(p, ropts); err != nil {
		t.Fatalf("prune=false checkpoint: %v", err)
	}

	ck = decode()
	ck.OptsSig = strings.Replace(ck.OptsSig, ";prune=false;", ";prune=true;", 1)
	ropts = ckOpts(1)
	ropts.Resume = ck
	_, err := Optimize(p, ropts)
	if err == nil || !strings.Contains(err.Error(), "differ from run options") {
		t.Fatalf("prune=true checkpoint: err = %v, want the options-mismatch error", err)
	}
}

// TestCountingSourceSkip pins the RNG fast-forward: replaying n draws of a
// fresh source lands on the identical stream position.
func TestCountingSourceSkip(t *testing.T) {
	a := newCountingSource(99)
	for i := 0; i < 1000; i++ {
		a.Uint64()
	}
	b := newCountingSource(99)
	b.skip(a.draws)
	b.draws = a.draws
	for i := 0; i < 10; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d after skip: %d != %d", i, x, y)
		}
	}
	if a.draws != b.draws {
		t.Fatalf("draw counters diverged: %d != %d", a.draws, b.draws)
	}
}

// TestOptimizeCancelled pins cancellation through the GA: a done context
// surfaces context.Canceled (not a partial Result), and every slot of the
// caller-shared pool is released by the time Optimize returns — the
// property the analysis service relies on to reuse its pool across jobs.
func TestOptimizeCancelled(t *testing.T) {
	p := tinyProblem(t)
	pool := workpool.New(4)
	defer pool.Close()

	for _, islands := range []int{1, 3} {
		opts := ckOpts(islands)
		opts.Pool = pool

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opts.Context = ctx
		if _, err := Optimize(p, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("islands=%d: pre-cancelled Optimize: got %v, want context.Canceled", islands, err)
		}

		// Cancel mid-run from the progress callback: generation 3 is past
		// init, well before the 12-generation finish.
		ctx, cancel = context.WithCancel(context.Background())
		opts.Context = ctx
		opts.Progress = func(gs GenStat) {
			if gs.Gen >= 3 {
				cancel()
			}
		}
		if _, err := Optimize(p, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("islands=%d: mid-run cancel: got %v, want context.Canceled", islands, err)
		}
		cancel()
		// Every slot must come free. Queued-but-unstarted FanOut helpers
		// may briefly hold theirs past the return (they run as no-ops as
		// soon as a worker frees — the documented FanOut contract), so
		// poll instead of asserting an instantaneous drain.
		deadline := time.Now().Add(5 * time.Second)
		held := 0
		for held < pool.Cap() {
			if pool.TryAcquire() {
				held++
				continue
			}
			if time.Now().After(deadline) {
				t.Fatalf("islands=%d: only %d/%d pool slots released after cancelled Optimize", islands, held, pool.Cap())
			}
			time.Sleep(100 * time.Microsecond)
		}
		for ; held > 0; held-- {
			pool.Release()
		}
	}
}

// TestOptimizeReleasesPrivatePool: the pool Optimize creates when
// Options.Pool is nil is closed before it returns, so repeated runs at
// any island count leave no worker goroutines behind, while a caller's
// pool is never closed and keeps accepting work.
func TestOptimizeReleasesPrivatePool(t *testing.T) {
	p := tinyProblem(t)
	base := runtime.NumGoroutine()
	for _, islands := range []int{1, 2, 3} {
		for seed := int64(1); seed <= 3; seed++ {
			if _, err := Optimize(p, Options{PopSize: 8, Generations: 2, Seed: seed,
				Islands: islands, MigrationInterval: 1, Workers: 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Closed pools' workers exit asynchronously; poll for the drain.
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before: Optimize leaked its private pool", n, base)
		}
		time.Sleep(time.Millisecond)
	}

	pool := workpool.New(4)
	defer pool.Close()
	if _, err := Optimize(p, Options{PopSize: 8, Generations: 2, Seed: 1,
		Islands: 2, MigrationInterval: 1, Workers: 4, Pool: pool}); err != nil {
		t.Fatal(err)
	}
	var ran sync.WaitGroup
	ran.Add(1)
	if !pool.Submit(ran.Done) {
		t.Fatal("caller-owned pool refused Submit after Optimize returned")
	}
	ran.Wait()
}

// TestProgressStream pins the streaming contract: every recorded GenStat
// reaches the callback exactly once, in a serialized stream whose entries
// match Result.History (modulo barrier MigrantsIn annotations, which land
// in History after the callback fires).
func TestProgressStream(t *testing.T) {
	p := tinyProblem(t)
	opts := ckOpts(3)
	var got []GenStat
	opts.Progress = func(gs GenStat) { got = append(got, gs) } // serialized by Optimize
	res, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.History) {
		t.Fatalf("Progress delivered %d GenStats, History has %d", len(got), len(res.History))
	}
	want := opts.Islands * (opts.Generations + 1)
	if len(got) != want {
		t.Fatalf("Progress delivered %d GenStats, want %d", len(got), want)
	}
	seen := map[[2]int]bool{}
	for _, gs := range got {
		k := [2]int{gs.Gen, gs.Island}
		if seen[k] {
			t.Fatalf("generation %d of island %d delivered twice", gs.Gen, gs.Island)
		}
		seen[k] = true
	}
}
