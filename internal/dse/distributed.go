package dse

// This file implements the remote venues of the island orchestrator:
// each island of a distributed run lives outside the coordinating
// process — in a child process on the same machine (pipe transport, a
// re-exec of the current binary) or on a fleet worker reached over TCP
// (Options.IslandHosts, served by ServeIslands / mcmapd -worker). The
// coordinator drives them with the same orchestrator (runIslands,
// island.go) and the same request sequence as in-process islands; only
// the endpoints differ, carrying each request as a length-prefixed gob
// frame (transport.go) instead of applying it in-process. Derived
// seeds, leg boundaries, migration and the slot-order merge are
// therefore the same in every venue, and the archives of a distributed
// run are byte-identical to the in-process mode for any given seed,
// counters included (pinned by TestDistributedMatchesInProcess and
// TestFleetMatchesInProcess): islands share no evaluation state in any
// venue, and evaluation is pure per genome.
//
// Protocol. Every frame is a 4-byte big-endian length (bit 31 marks
// flate compression) followed by one gob-encoded wireMsg. The
// coordinator speaks first and every request gets exactly one reply —
// TCP workers may interleave kindPing liveness frames, which transports
// swallow — so the conversation per worker is strictly half-duplex and
// deadlock-free:
//
//	coordinator → worker   worker → coordinator
//	init{spec,opts,i,s} → ack          (island built, generation 0 done)
//	advance{from,to}    → ack          (leg evolved)
//	elites{n}           → elites{...}  (migration sources, pre-merge)
//	migrants{in,out}    → ack          (receiver-side merge applied)
//	finish              → done{...}    (archive, history, stats)
//
// The coordinator sends each leg's requests to ALL workers before
// reading any reply, so the workers compute concurrently; replies are
// read in island slot order, which is also the order every run-level
// aggregate is folded in. Requests and replies are small (elite sets
// are a tenth of an archive) and never approach the transport buffers,
// so the batched sends cannot block.
//
// The worker half is islandWorker (transport.go), served over pipes by
// RunIslandWorker and over TCP by ServeIslands. The host binary must
// divert to RunIslandWorker before doing anything else when
// IslandWorkerEnv is set — cmd/ftmap does so at the top of main, and
// the dse test binary in TestMain — so a re-exec'd process becomes a
// protocol server instead of re-running the parent's command line.
//
// Failure handling lives in the endpoints (transport.go): a lost worker
// is replayed onto a fresh connection or taken over locally, both
// byte-identical; Stats.IslandTakeovers counts the takeovers.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"mcmap/internal/model"
	"mcmap/internal/workpool"
)

// Wire message kinds. Replies echo the request kind except where a
// dedicated payload exists (elites, done) or something failed (error).
// TCP workers additionally emit kindPing liveness frames while a leg
// computes; they are consumed inside the transport and never surface.
const (
	kindInit     = "init"
	kindAdvance  = "advance"
	kindElites   = "elites"
	kindMigrants = "migrants"
	kindFinish   = "finish"
	kindAck      = "ack"
	kindDone     = "done"
	kindError    = "error"
	kindPing     = "ping"
)

// wireMsg is the one envelope both directions use; Kind selects which
// fields are meaningful. Individuals cross the wire as their exported
// fields (genome, objectives, report views) — the unexported scenario
// tally stays behind, which is fine: it is folded into island stats at
// evaluation time and never read off migrants or archive members.
type wireMsg struct {
	Kind string
	Init *wireInit
	// From, To delimit an advance leg (generations, inclusive).
	From, To int
	// N is the elite count requested by an elites message.
	N int
	// In carries the migrants entering the receiving island; OutCount is
	// the size of the elite set that island contributed to the round
	// (counted by the receiver, see island.receive).
	In       []*Individual
	OutCount int
	// Elites answers an elites request.
	Elites []*Individual
	Done   *wireDone
	Error  string
}

// wireInit carries everything a worker needs to reconstruct its island:
// the problem spec (revalidated by the worker), the run options that
// survive the wire, the island slot and its derived seed.
type wireInit struct {
	SpecJSON []byte
	Opts     wireOptions
	Island   int
	Seed     int64
}

// wireOptions is the serializable subset of Options. The selector
// travels by Name (only the built-in selectors work distributed) and
// Workers is the worker's own budget, already divided by the
// coordinator. MigrationInterval stays home: the coordinator drives the
// legs.
type wireOptions struct {
	PopSize           int
	ArchiveSize       int
	Generations       int
	MutationRate      float64
	Workers           int
	Selector          string
	TrackDroppingGain bool
	PruneDominated    bool
	DisableDropping   bool
	DisableRepair     bool
	NoSeeds           bool
	MaxK              int
	MaxReplicas       int
}

// wireDone is a worker's final report: its archive, per-generation
// history (island-tagged), raw stats and the island summary.
type wireDone struct {
	Archive []*Individual
	History []GenStat
	Stats   Stats
	Island  IslandStat
}

// selectorByName resolves the built-in selectors for the wire. Custom
// Selector implementations cannot cross a process boundary, so the
// coordinator refuses distributed runs with anything else up front.
func selectorByName(name string) (Selector, bool) {
	switch name {
	case SPEA2{}.Name():
		return SPEA2{}, true
	case Elitist{}.Name():
		return Elitist{}, true
	}
	return nil, false
}

// remoteEndpoints builds one remote endpoint per island: child
// processes over pipes, or fleet workers over TCP when
// Options.IslandHosts is set (island i connects to IslandHosts[i mod
// len]). Each endpoint carries the init payload its worker builds the
// island from.
func remoteEndpoints(p *Problem, opts Options) ([]*islandEndpoint, error) {
	if _, ok := selectorByName(opts.Selector.Name()); !ok {
		return nil, fmt.Errorf("dse: distributed islands support only the built-in selectors (spea2, elitist), not %q", opts.Selector.Name())
	}
	var specJSON bytes.Buffer
	if err := (&model.Spec{Architecture: p.Arch, Apps: p.Apps}).WriteJSON(&specJSON); err != nil {
		return nil, fmt.Errorf("dse: serializing spec for island workers: %w", err)
	}

	// Each worker owns a private budget: an even split of the run's
	// Workers, at least one. (In-process islands share one pool; across
	// processes or machines there is nothing to share.) Remote legs hold
	// no slots of the coordinator's own pool — its budget is free for
	// whatever else the process runs, and workpool.InUse surfaces that on
	// the daemon's /stats.
	childWorkers := opts.Workers / opts.Islands
	if childWorkers < 1 {
		childWorkers = 1
	}
	wopts := wireOptions{
		PopSize:           opts.PopSize,
		ArchiveSize:       opts.ArchiveSize,
		Generations:       opts.Generations,
		MutationRate:      opts.MutationRate,
		Workers:           childWorkers,
		Selector:          opts.Selector.Name(),
		TrackDroppingGain: opts.TrackDroppingGain,
		PruneDominated:    opts.PruneDominated,
		DisableDropping:   opts.DisableDropping,
		DisableRepair:     opts.DisableRepair,
		NoSeeds:           opts.NoSeeds,
		MaxK:              p.MaxK,
		MaxReplicas:       p.MaxReplicas,
	}

	var exe string
	if len(opts.IslandHosts) == 0 {
		var err error
		if exe, err = os.Executable(); err != nil {
			return nil, fmt.Errorf("dse: locating executable for island workers: %w", err)
		}
	}
	eps := make([]*islandEndpoint, 0, opts.Islands)
	for i, seed := range islandSeeds(opts.Seed, opts.Islands) {
		ep := &islandEndpoint{slot: i, init: &wireInit{
			SpecJSON: specJSON.Bytes(), Opts: wopts, Island: i, Seed: seed,
		}}
		if len(opts.IslandHosts) > 0 {
			ep.tr = &tcpTransport{addr: opts.IslandHosts[i%len(opts.IslandHosts)]}
		} else {
			pt, err := spawnPipeWorker(exe)
			if err != nil {
				for _, ep := range eps {
					ep.kill()
				}
				return nil, fmt.Errorf("dse: starting island worker %d: %w", i, err)
			}
			ep.tr = pt
		}
		eps = append(eps, ep)
	}
	return eps, nil
}

// RunIslandWorker serves one island of a distributed run over the
// coordinator's pipe protocol: requests arrive on r, replies leave on w.
// It returns when the coordinator closes the pipe (clean EOF after
// finish) and reports protocol or evolution errors after echoing them to
// the coordinator. Host binaries route to it from main when
// IslandWorkerEnv is set; the env check itself lives with the caller so
// this package stays environment-independent.
func RunIslandWorker(r io.Reader, w io.Writer) error {
	worker := &islandWorker{}
	for {
		msg, err := readFrame(r)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		reply, herr := worker.handle(msg)
		if herr != nil {
			writeFrame(w, &wireMsg{Kind: kindError, Error: herr.Error()})
			return herr
		}
		if err := writeFrame(w, reply); err != nil {
			return err
		}
	}
}

// buildWorkerIsland reconstructs the worker's island from an init
// frame: spec → Problem (revalidated), wire options → Options, then the
// same evaluator wiring Optimize performs, on a private pool of the
// worker's own budget (the worker closes it).
func buildWorkerIsland(init *wireInit) (*island, error) {
	spec, err := model.ReadSpec(bytes.NewReader(init.SpecJSON))
	if err != nil {
		return nil, err
	}
	p, err := NewProblem(spec.Architecture, spec.Apps)
	if err != nil {
		return nil, err
	}
	p.MaxK = init.Opts.MaxK
	p.MaxReplicas = init.Opts.MaxReplicas
	sel, ok := selectorByName(init.Opts.Selector)
	if !ok {
		return nil, fmt.Errorf("dse: island worker got unknown selector %q", init.Opts.Selector)
	}
	opts := Options{
		PopSize:           init.Opts.PopSize,
		ArchiveSize:       init.Opts.ArchiveSize,
		Generations:       init.Opts.Generations,
		MutationRate:      init.Opts.MutationRate,
		Workers:           init.Opts.Workers,
		Selector:          sel,
		TrackDroppingGain: init.Opts.TrackDroppingGain,
		PruneDominated:    init.Opts.PruneDominated,
		DisableDropping:   init.Opts.DisableDropping,
		DisableRepair:     init.Opts.DisableRepair,
		NoSeeds:           init.Opts.NoSeeds,
		Pool:              workpool.New(init.Opts.Workers),
	}
	ev, opts := newRunEvaluator(p, opts)
	return newIsland(init.Island, p, opts, init.Seed, ev), nil
}
