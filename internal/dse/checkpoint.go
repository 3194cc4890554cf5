package dse

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
	"mcmap/internal/validate"
)

// This file implements checkpoint/resume for DSE runs: at every
// migration barrier the coordinator can serialize the complete
// evolutionary state — per-island archives, histories, statistics and
// RNG positions — and a later run restored from that checkpoint
// produces a byte-identical final archive to the uninterrupted run
// (pinned by TestCheckpointResumeDeterminism). What makes this exact is
// that the RNG state is captured as a draw count over a counted source
// (countingSource): math/rand sources are not serializable, but the
// generator is a pure function of (seed, draws performed), so replaying
// `draws` steps of a freshly seeded source fast-forwards to the
// identical stream position.
//
// Checkpoints are taken only at migration barriers (every island
// joined, migration applied), which is exactly the point where the
// remaining run depends on nothing but the serialized state.

// checkpointVersion guards the gob schema; bump on incompatible change.
const checkpointVersion = 1

// Checkpoint is the complete resumable state of a DSE run at a
// migration barrier.
type Checkpoint struct {
	// Version is the serialization schema version.
	Version int
	// SpecFingerprint identifies the problem (architecture + apps,
	// validate.Fingerprint); Resume refuses a mismatched problem.
	SpecFingerprint string
	// OptsSig is the canonical signature of every trajectory-relevant
	// option (see optsSignature); Resume refuses mismatched options.
	OptsSig string
	// Gen is the last completed generation (a multiple of
	// MigrationInterval strictly below Generations).
	Gen int
	// Migrations is Stats.Migrations accumulated so far.
	Migrations int
	// Islands holds one entry per island, in island order.
	Islands []IslandCheckpoint
}

// IslandCheckpoint is one island's serialized state.
type IslandCheckpoint struct {
	Island int
	// Seed is the island's derived RNG seed; Draws is how many source
	// draws the island has performed (the fast-forward distance).
	Seed  int64
	Draws uint64
	// Archive, History and Stats are the island's evolutionary state at
	// the barrier (post-migration, post-selection).
	Archive []*Individual
	History []GenStat
	Stats   Stats
	// MigrantsIn and MigrantsOut are the island's migration tallies.
	MigrantsIn  int
	MigrantsOut int
}

// Encode serializes the checkpoint. The stream is self-contained gob;
// callers own durability (file, object store, memory).
func (c *Checkpoint) Encode(w io.Writer) error {
	return gob.NewEncoder(w).Encode(c)
}

// DecodeCheckpoint deserializes a checkpoint written by Encode and
// verifies its schema version.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("dse: decoding checkpoint: %w", err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("dse: checkpoint version %d, want %d", c.Version, checkpointVersion)
	}
	return &c, nil
}

// countingSource wraps a math/rand source and counts the draws taken
// from it. It implements rand.Source64, so a rand.Rand built on it uses
// the identical stream it would use on the bare source — Int63 and
// Uint64 each advance the underlying generator exactly one step, and
// the count records those steps for later fast-forwarding.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.draws = 0
	c.src.Seed(seed)
}

// skip fast-forwards the source by n draws without counting them; the
// caller sets draws afterwards. Linear in n, but a checkpointed run
// draws a few numbers per genome per generation, so even paper-scale
// runs (5000 generations × 100 genomes) replay within milliseconds.
func (c *countingSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
}

// problemFingerprint is the checkpoint's problem identity: the canonical
// spec fingerprint over architecture and applications (no mapping — the
// mapping is what the DSE searches) plus the chromosome caps.
func problemFingerprint(p *Problem) string {
	fp := validate.Fingerprint(&model.Spec{Architecture: p.Arch, Apps: p.Apps})
	return fmt.Sprintf("%s;maxk=%d;maxrep=%d", fp, p.MaxK, p.MaxReplicas)
}

// optsSignature canonicalizes every option that steers the trajectory.
// Worker counts and the pool are deliberately absent: they change
// scheduling, never archives. The literals prune=false and
// nocompiled=false stand for removed switches, so signatures persisted
// by earlier releases still match and their checkpoints resume, while
// checkpoints of runs with either switch on are refused.
func optsSignature(o Options) string {
	return fmt.Sprintf(
		"v%d;pop=%d;arch=%d;gens=%d;seed=%d;mut=%g;islands=%d;mig=%d;sel=%s;track=%t;prune=false;nocompiled=false;nodrop=%t;norepair=%t;noseeds=%t",
		checkpointVersion, o.PopSize, o.ArchiveSize, o.Generations, o.Seed, o.MutationRate,
		o.Islands, o.MigrationInterval, o.Selector.Name(), o.TrackDroppingGain,
		o.DisableDropping, o.DisableRepair, o.NoSeeds)
}

// captureCheckpoint snapshots the run at a barrier. It is called with
// every island goroutine joined, so reading island state is race-free;
// archives and histories are stored as live references — sinks must
// Encode (or otherwise deep-copy) before the run continues, which the
// synchronous CheckpointSink contract guarantees.
func captureCheckpoint(p *Problem, opts Options, islands []*island, gen, migrations int) *Checkpoint {
	ck := &Checkpoint{
		Version:         checkpointVersion,
		SpecFingerprint: problemFingerprint(p),
		OptsSig:         optsSignature(opts),
		Gen:             gen,
		Migrations:      migrations,
	}
	for _, isl := range islands {
		ck.Islands = append(ck.Islands, IslandCheckpoint{
			Island:      isl.idx,
			Seed:        isl.opts.Seed,
			Draws:       isl.src.draws,
			Archive:     isl.archive,
			History:     isl.history,
			Stats:       isl.stats,
			MigrantsIn:  isl.migrantsIn,
			MigrantsOut: isl.migrantsOut,
		})
	}
	return ck
}

// checkResume validates a checkpoint against the resuming run's problem
// and options.
func checkResume(p *Problem, opts Options, ck *Checkpoint) error {
	if ck.Version != checkpointVersion {
		return fmt.Errorf("dse: resume: checkpoint version %d, want %d", ck.Version, checkpointVersion)
	}
	if fp := problemFingerprint(p); ck.SpecFingerprint != fp {
		return fmt.Errorf("dse: resume: checkpoint belongs to a different problem (fingerprint %.24s…, want %.24s…)",
			ck.SpecFingerprint, fp)
	}
	if sig := optsSignature(opts); ck.OptsSig != sig {
		return fmt.Errorf("dse: resume: checkpoint options %q differ from run options %q", ck.OptsSig, sig)
	}
	if len(ck.Islands) != opts.Islands {
		return fmt.Errorf("dse: resume: checkpoint has %d islands, run wants %d", len(ck.Islands), opts.Islands)
	}
	if ck.Gen <= 0 || ck.Gen >= opts.Generations || ck.Gen%opts.MigrationInterval != 0 {
		return fmt.Errorf("dse: resume: checkpoint generation %d is not a migration barrier of a %d-generation run (interval %d)",
			ck.Gen, opts.Generations, opts.MigrationInterval)
	}
	return nil
}

// restoreIsland loads one island's serialized state and fast-forwards
// its RNG to the checkpointed stream position.
func restoreIsland(isl *island, ic *IslandCheckpoint) {
	isl.src.skip(ic.Draws)
	isl.src.draws = ic.Draws
	isl.archive = ic.Archive
	isl.history = append([]GenStat(nil), ic.History...)
	isl.stats = ic.Stats
	if isl.stats.TechniqueCounts == nil {
		// gob drops empty maps; evaluateAll writes into it.
		isl.stats.TechniqueCounts = map[hardening.Technique]int{}
	}
	isl.migrantsIn = ic.MigrantsIn
	isl.migrantsOut = ic.MigrantsOut
}
