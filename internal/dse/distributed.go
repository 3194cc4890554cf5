package dse

// This file implements the distributed island mode: each island of a
// distributed run lives outside the coordinating goroutine — in a child
// process on the same machine (pipe transport, a re-exec of the current
// binary) or on a fleet worker reached over TCP (Options.IslandHosts,
// served by ServeIslands / mcmapd -worker) — and the coordinator drives
// legs, ring migration and the final merge over length-prefixed gob
// frames (transport.go). The orchestration mirrors runIslands exactly —
// same derived seeds, same leg boundaries, same migration quirks, same
// slot-order stats merge — so the archives of a distributed run are
// byte-identical to the in-process mode for any given seed, counters
// included (pinned by TestDistributedMatchesInProcess and
// TestFleetMatchesInProcess): islands share no evaluation state in
// either mode, and evaluation is pure per genome.
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
	"sort"

	"mcmap/internal/model"
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
	// (counted by the receiver, exactly like migrateRing does).
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
	DisableBatch      bool
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

// runIslandsDistributed is the out-of-process twin of runIslands: one
// worker per island — child processes over pipes, or fleet workers over
// TCP when Options.IslandHosts is set (island i connects to
// IslandHosts[i mod len]) — same legs, same ring, same merge order.
func runIslandsDistributed(p *Problem, opts Options, res *Result) ([]*Individual, error) {
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
		DisableBatch:      opts.DisableBatch,
		NoSeeds:           opts.NoSeeds,
		MaxK:              p.MaxK,
		MaxReplicas:       p.MaxReplicas,
	}

	k := opts.Islands
	seeds := islandSeeds(opts.Seed, k)
	eps := make([]*islandEndpoint, 0, k)
	takeovers := 0
	failed := true
	defer func() {
		if failed {
			for _, ep := range eps {
				ep.kill()
			}
		}
	}()
	if len(opts.IslandHosts) > 0 {
		for i := 0; i < k; i++ {
			addr := opts.IslandHosts[i%len(opts.IslandHosts)]
			eps = append(eps, &islandEndpoint{slot: i, tr: &tcpTransport{addr: addr}, takeovers: &takeovers})
		}
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("dse: locating executable for island workers: %w", err)
		}
		for i := 0; i < k; i++ {
			pt, err := spawnPipeWorker(exe)
			if err != nil {
				return nil, fmt.Errorf("dse: starting island worker %d: %w", i, err)
			}
			eps = append(eps, &islandEndpoint{slot: i, tr: pt, takeovers: &takeovers})
		}
	}

	// broadcast sends one request to every listed worker, then collects
	// the replies in slot order; the workers overlap their computation.
	broadcast := func(idx []int, req func(i int) *wireMsg, wantKind string) ([]*wireMsg, error) {
		for _, i := range idx {
			eps[i].send(req(i), wantKind)
		}
		replies := make([]*wireMsg, len(eps))
		for _, i := range idx {
			msg, err := eps[i].collect()
			if err != nil {
				return nil, fmt.Errorf("dse: island worker %d: %w", i, err)
			}
			replies[i] = msg
		}
		return replies, nil
	}
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}

	// Generation 0 on every island.
	if _, err := broadcast(all, func(i int) *wireMsg {
		return &wireMsg{Kind: kindInit, Init: &wireInit{
			SpecJSON: specJSON.Bytes(), Opts: wopts, Island: i, Seed: seeds[i],
		}}
	}, kindAck); err != nil {
		return nil, err
	}

	// Legs and migration barriers, mirroring runIslands' loop bounds.
	// Cancellation is coarse here: the coordinator checks the context at
	// each leg boundary only (workers have no context to thread it into),
	// so a cancelled distributed run stops within one leg.
	for start := 1; start <= opts.Generations; start += opts.MigrationInterval {
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				return nil, err
			}
		}
		end := start + opts.MigrationInterval - 1
		if end > opts.Generations {
			end = opts.Generations
		}
		if _, err := broadcast(all, func(int) *wireMsg {
			return &wireMsg{Kind: kindAdvance, From: start, To: end}
		}, kindAck); err != nil {
			return nil, err
		}
		if end >= opts.Generations {
			continue
		}
		// One ring-migration round. The elites are captured from every
		// pre-merge archive first (exactly like migrateRing), then each
		// receiver merges its predecessor's set; islands receiving an
		// empty set are skipped entirely, including their MigrantsOut
		// tally — the in-process accounting quirk, preserved.
		n := migrationElites(opts.ArchiveSize)
		elites, err := broadcast(all, func(int) *wireMsg {
			return &wireMsg{Kind: kindElites, N: n}
		}, kindElites)
		if err != nil {
			return nil, err
		}
		var receivers []int
		for i := 0; i < k; i++ {
			if len(elites[(i-1+k)%k].Elites) > 0 {
				receivers = append(receivers, i)
				res.Stats.Migrations += len(elites[(i-1+k)%k].Elites)
			}
		}
		if _, err := broadcast(receivers, func(i int) *wireMsg {
			return &wireMsg{
				Kind:     kindMigrants,
				In:       elites[(i-1+k)%k].Elites,
				OutCount: len(elites[i].Elites),
			}
		}, kindAck); err != nil {
			return nil, err
		}
	}

	// Harvest in slot order — the same fold order as runIslands.
	dones, err := broadcast(all, func(int) *wireMsg { return &wireMsg{Kind: kindFinish} }, kindDone)
	if err != nil {
		return nil, err
	}
	failed = false
	for i, ep := range eps {
		if err := ep.close(); err != nil {
			return nil, fmt.Errorf("dse: island worker %d exited: %w", i, err)
		}
	}
	res.Stats.IslandTakeovers = takeovers

	union := make([]*Individual, 0, k*opts.ArchiveSize)
	for _, msg := range dones {
		d := msg.Done
		if d == nil {
			return nil, errors.New("dse: island worker sent an empty done frame")
		}
		res.Stats.merge(&d.Stats)
		res.Stats.IslandStats = append(res.Stats.IslandStats, d.Island)
		res.History = append(res.History, d.History...)
		union = append(union, d.Archive...)
	}
	sort.SliceStable(res.History, func(i, j int) bool {
		if res.History[i].Gen != res.History[j].Gen {
			return res.History[i].Gen < res.History[j].Gen
		}
		return res.History[i].Island < res.History[j].Island
	})
	return opts.Selector.Select(union, opts.ArchiveSize), nil
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
// same evaluator wiring Optimize performs, scaled to the worker's own
// budget.
func buildWorkerIsland(init *wireInit) (*island, error) {
	if init == nil {
		return nil, errors.New("dse: island init frame without payload")
	}
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
		DisableBatch:      init.Opts.DisableBatch,
		NoSeeds:           init.Opts.NoSeeds,
	}
	ev, opts := newRunEvaluator(p, opts)
	return newIsland(init.Island, p, opts, init.Seed, ev), nil
}
