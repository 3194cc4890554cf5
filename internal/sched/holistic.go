package sched

import (
	"sync"

	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// Holistic is the default schedulability backend: an offset-based
// job-level response-time analysis for fixed-priority preemptive
// processors connected by either an ideal fabric or a shared bus.
//
// The compiled system already contains one node per job inside the
// hyperperiod (platform unrolls graph instances), so the analysis bounds
// every job individually:
//
//   - best case: a forward pass assuming no interference and
//     contention-free communication — a true lower bound on start times;
//   - worst case: the activation of a job is the latest finish of its
//     predecessors plus the communication delay; its busy window sums the
//     execution of every higher-priority job on the same processor that
//     cannot be excluded. A job j is excluded when it certainly finished
//     before i can first activate (maxFinish_j <= minStart_i), when it
//     certainly activates after i's window closes, or when it is a
//     transitive predecessor of i (its finish already defines i's
//     activation).
//
// The cross-graph dependencies (jitter via predecessor finishes and the
// exclusion tests) are solved by an outer fixed point. Because the
// compiled job set covers exactly one hyperperiod, bounds are valid for
// systems that complete each hyperperiod's work within that hyperperiod —
// which the feasibility check enforces (every deadline <= period <=
// hyperperiod boundary). Overloaded designs surface as deadline misses,
// reported via Result.Schedulable.
//
// Holistic is stateless and safe for concurrent use: Analyze keeps all
// per-call state in a Result or in a scratch drawn from scratchPool, so
// one instance may be shared by every concurrent candidate evaluation,
// and instances built per request share warm buffers.
type Holistic struct{}

// outerSweepCap caps the outer worst-case fixed point of Holistic and
// Reference. Hitting the cap saturates every bound to infinity, which
// keeps the result safe.
const outerSweepCap = 256

// scratchPool recycles the fixed-point working sets across analyses,
// process-wide. The GC may drop pooled scratches, and with them the
// kernel each one caches for its last system. That costs little: every
// candidate and request compiles its own System, so the kernel is
// rebuilt per Algorithm 1 call anyway, and a Session keeps one scratch
// for the whole call.
var scratchPool = sync.Pool{New: func() any {
	return &holisticScratch{busDelay: make(map[edgeKey]model.Time)}
}}

// holisticScratch is one analysis's reusable working set.
type holisticScratch struct {
	minAct, maxFinish, activation []model.Time
	busDelay                      map[edgeKey]model.Time
	msgs                          []busMsg
	// kern holds the system's precomputed peer segments (see kernel.go);
	// kernSys remembers which system it was built for, so every analysis
	// of the same system through this scratch — the fault-free pass and
	// all scenario runs — shares one build.
	kern    holisticKernel
	kernSys *platform.System
	// sweepDirty marks the jobs whose inputs moved since their last
	// recompute: worstPass and improveBestCase revisit only those.
	sweepDirty []bool
	// peers packs, per node, the two admission-scan inputs that stay
	// constant for a whole pass — the contribution and the gate time —
	// into one 16-byte entry, so the hot partition scans touch two
	// memory streams (peers, maxFinish) instead of three.
	peers []peerState
}

// prep readies the scratch for one analysis of sys. Sessions re-prep
// their pinned scratch before every analysis, so a pinned scratch
// enters each run in exactly the state a pool checkout would.
func (s *holisticScratch) prep(sys *platform.System) {
	n := len(sys.Nodes)
	s.minAct = resizeTimes(s.minAct, n)
	s.maxFinish = resizeTimes(s.maxFinish, n)
	s.activation = resizeTimes(s.activation, n)
	if s.kernSys != sys {
		s.kern.build(sys)
		s.kernSys = sys
	}
}

// resizeBools returns a false-filled slice of length n, reusing capacity.
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// resizeTimes returns a zeroed slice of length n, reusing capacity.
func resizeTimes(s []model.Time, n int) []model.Time {
	if cap(s) < n {
		return make([]model.Time, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// peerState is one node's packed admission-scan inputs. Both hot scans
// follow the same shape — "admit the peer and accumulate its
// contribution unless its gate time postpones it" — so one layout
// serves both: worstFinish packs {wcet, minAct}, the guaranteed-demand
// scan of improveBestCase packs {bcet, worst-case activation}. Each
// pass rebuilds the vector once (the inputs are constant for the whole
// pass), which is noise next to the scans it feeds.
type peerState struct {
	c    model.Time // contribution added when the peer is admitted
	gate model.Time // time gating the admission test
}

// resizePeers returns a slice of length n, reusing capacity.
func resizePeers(s []peerState, n int) []peerState {
	if cap(s) < n {
		return make([]peerState, n)
	}
	return s[:n]
}

// finishedBound is exclusion 1's bound for a job whose activation lower
// bound is minAct: a peer whose finite finish is at most minAct
// certainly finished before the job can first activate. One compare
// against the bound decides both parts — for a finite minAct a finish at
// or below it is necessarily finite, and for an infinite one the bound
// Infinity-1 excludes exactly the finite finishes (SatAdd clamps at
// Infinity, so no finish lands in between). worstFinish reads a peer's
// finish through this one test only, which is what lets worstPass wake
// readers exactly.
func finishedBound(minAct model.Time) model.Time {
	return min(minAct, model.Infinity-1)
}

// Name implements Analyzer.
func (h *Holistic) Name() string { return "holistic-job-rta" }

// Analyze implements Analyzer.
func (h *Holistic) Analyze(sys *platform.System, exec []ExecBounds) (*Result, error) {
	s := scratchPool.Get().(*holisticScratch)
	defer scratchPool.Put(s)
	s.prep(sys)
	res := new(Result)
	if err := analyzeWith(sys, exec, s, res); err != nil {
		return nil, err
	}
	return res, nil
}

// analyzeWith is Analyze over a caller-owned scratch and result; s must
// have been prepped for sys immediately before the call. It overwrites
// every field of res, reusing the capacity of res.Bounds.
func analyzeWith(sys *platform.System, exec []ExecBounds, s *holisticScratch, res *Result) error {
	if err := ValidateExec(sys, exec); err != nil {
		return err
	}
	n := len(sys.Nodes)
	bounds := res.Bounds
	if cap(bounds) < n {
		bounds = make([]Bounds, n)
	}
	*res = Result{Bounds: bounds[:n]}
	clear(res.Bounds)

	// ---- Phase A: precedence-only best-case pass ------------------------
	// minAct[i] is a lower bound on job i's ACTIVATION (all inputs
	// available); Bounds.MinStart is a lower bound on its START (first
	// execution). They coincide in phase A and diverge in phase C, where
	// guaranteed higher-priority demand delays starts but not activations.
	// The worst-pass exclusion tests must use minAct: a job that finishes
	// before i's activation cannot delay it, but a job finishing before
	// i's (interference-delayed) start may be the very reason the start is
	// late.
	minAct := s.minAct
	bestCasePrec(sys, exec, res, minAct)

	// ---- Phase B: worst-case fixed point --------------------------------
	maxFinish := s.maxFinish
	activation := s.activation
	diverged := worstPass(sys, exec, res, minAct, maxFinish, activation, s)

	// ---- Phase C: best-case improvement ----------------------------------
	// Jobs whose worst-case activation certainly precedes a lower-priority
	// job's earliest start must complete at least their bcet before it
	// starts; folding that guaranteed demand into minStart tightens the
	// Algorithm 1 before/after-the-fault classifications, and the improved
	// predecessor finishes lift the activation bounds used by the exclusion
	// tests.
	if !diverged && improveBestCase(sys, exec, res, minAct, activation, s) {
		// ---- Phase D: re-run the worst case with tighter exclusions.
		diverged = worstPass(sys, exec, res, minAct, maxFinish, activation, s)
	}

	if diverged {
		for i := range maxFinish {
			maxFinish[i] = model.Infinity
		}
	}
	res.Schedulable = true
	for i := range maxFinish {
		res.Bounds[i].MaxFinish = maxFinish[i]
		if maxFinish[i].IsInfinite() || maxFinish[i] > sys.Nodes[i].AbsDeadline {
			res.Schedulable = false
		}
	}
	return nil
}

// bestCasePrec fills MinStart/MinFinish/minAct from precedence chains
// only.
func bestCasePrec(sys *platform.System, exec []ExecBounds, res *Result, minAct []model.Time) {
	for gi := range sys.GraphNodes {
		for _, nid := range sys.GraphNodes[gi] { // topo order per instance
			node := sys.Nodes[nid]
			start := node.Release
			for _, e := range node.In {
				f := model.SatAdd(res.Bounds[e.From].MinFinish, e.Delay)
				if f > start {
					start = f
				}
			}
			minAct[nid] = start
			res.Bounds[nid].MinStart = start
			res.Bounds[nid].MinFinish = model.SatAdd(start, exec[nid].B)
		}
	}
}

// worstPass runs the outer worst-case fixed point, filling maxFinish and
// activation. It reports whether the recurrences failed to converge
// (treated as divergence).
func worstPass(sys *platform.System, exec []ExecBounds, res *Result, minAct, maxFinish, activation []model.Time, s *holisticScratch) bool {
	// Chaotic-iteration skip: a job is recomputed only while some input
	// of its equation moved since its last recompute — a predecessor's
	// finish, a peer's finish crossing the job's exclusion-1 bound, or a
	// bus delay — and skipped otherwise, since it would only reproduce
	// its act/fin. Dirty marks persist until the job is visited, so a
	// change wakes readers earlier in the sweep order on the next sweep
	// and later ones on this sweep, exactly as a full sweep reads them.
	s.sweepDirty = resizeBools(s.sweepDirty, len(maxFinish))
	dirty := s.sweepDirty
	for i := range maxFinish {
		maxFinish[i] = res.Bounds[i].MinFinish
		activation[i] = res.Bounds[i].MinStart
		dirty[i] = true
	}
	limit := sys.Hyperperiod * 4
	busDelay := initBusDelays(sys, s.busDelay)
	arbitrated := sys.Arch.Fabric.Arbitrated()

	// Pack the scan inputs worstFinish reads per peer: both are constant
	// for the whole pass (minAct is written only by phases A and C).
	s.peers = resizePeers(s.peers, len(minAct))
	peers := s.peers
	for i := range peers {
		peers[i] = peerState{c: exec[i].W, gate: minAct[i]}
	}

	iters := 0
	for ; iters < outerSweepCap; iters++ {
		changed := false
		if arbitrated {
			// Bus delays couple all senders globally: any change wakes
			// every node.
			if updateBusDelays(sys, exec, res, maxFinish, busDelay, s) {
				changed = true
				for i := range dirty {
					dirty[i] = true
				}
			}
		}
		for gi := range sys.GraphNodes {
			for _, nid := range sys.GraphNodes[gi] {
				if !dirty[nid] {
					continue
				}
				dirty[nid] = false
				node := sys.Nodes[nid]
				act := node.Release
				for _, e := range node.In {
					d := e.Delay
					if arbitrated && d > 0 {
						d = busDelay[edgeKey{e.From, e.To}]
					}
					f := model.SatAdd(maxFinish[e.From], d)
					if f > act {
						act = f
					}
				}
				fin := model.Time(model.Infinity)
				if !act.IsInfinite() {
					fin = worstFinish(&s.kern, peers, maxFinish, nid, act, limit)
				}
				if act != activation[nid] {
					changed = true
					activation[nid] = act
				}
				old := maxFinish[nid]
				if fin == old {
					continue
				}
				changed = true
				maxFinish[nid] = fin
				for _, e := range node.Out {
					dirty[e.To] = true
				}
				// A reader r tests this finish only against its
				// exclusion-1 bound: wake it when the test flips.
				for _, r := range s.kern.readerSeg(nid) {
					bound := finishedBound(peers[r].gate)
					if (old <= bound) != (fin <= bound) {
						dirty[r] = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	res.Iterations += iters
	return iters >= outerSweepCap
}

// improveBestCase lifts MinStart using guaranteed higher-priority demand:
// every same-processor higher-priority job whose worst-case activation is
// no later than the job's current earliest start certainly executes its
// bcet before the job can start. minAct is lifted through improved
// predecessor finishes only (activations do not wait for interference).
// Returns whether any bound moved.
func improveBestCase(sys *platform.System, exec []ExecBounds, res *Result, minAct, activation []model.Time, sc *holisticScratch) (improved bool) {
	// Chaotic-iteration skip, successor-driven: a node's improvement
	// equations read only its predecessors' MinFinish (worst-case
	// activations are constant for the whole pass, and every node's own
	// update is idempotent), so after the first sweep only nodes below a
	// changed MinFinish need revisiting. Skipped nodes would reproduce
	// their bounds verbatim, keeping sweep values and counts identical
	// to the full sweep.
	sc.sweepDirty = resizeBools(sc.sweepDirty, len(sys.Nodes))
	dirty := sc.sweepDirty
	for i := range dirty {
		dirty[i] = true
	}
	// Pack the guaranteed-demand scan inputs: worst-case activations and
	// best-case execution times are both constant for the whole pass.
	sc.peers = resizePeers(sc.peers, len(sys.Nodes))
	peers := sc.peers
	for i := range peers {
		peers[i] = peerState{c: exec[i].B, gate: activation[i]}
	}
	for sweep := 0; sweep < 64; sweep++ {
		changed := false
		for gi := range sys.GraphNodes {
			for _, nid := range sys.GraphNodes[gi] {
				if !dirty[nid] {
					continue
				}
				dirty[nid] = false
				node := sys.Nodes[nid]
				prec := node.Release
				for _, e := range node.In {
					f := model.SatAdd(res.Bounds[e.From].MinFinish, e.Delay)
					if f > prec {
						prec = f
					}
				}
				if prec > minAct[nid] {
					minAct[nid] = prec
					changed = true
					improved = true
				}
				if exec[nid].W == 0 {
					// Timeless jobs (dispatch steps, silent passive
					// replicas, dropped jobs) complete at activation and
					// never queue for the processor, so the
					// guaranteed-demand guard below must not delay them.
					if prec > res.Bounds[nid].MinStart {
						res.Bounds[nid].MinStart = prec
						res.Bounds[nid].MinFinish = prec
						changed = true
						improved = true
						for _, e := range node.Out {
							dirty[e.To] = true
						}
					}
					continue
				}
				s := model.MaxTime(prec, res.Bounds[nid].MinStart)
				// Inner fixed point: growing s can only admit more
				// guaranteed-earlier jobs, so the demand segment runs
				// through the same monotone partition scan as worstFinish:
				// each round visits only the peers the previous rounds
				// could not admit.
				seg := sc.kern.demandSeg(nid)
				var demand model.Time
				pend := len(seg)
				for {
					kept := 0
					for i := 0; i < pend; i++ {
						pid := seg[i]
						p := peers[pid]
						if p.gate.IsInfinite() || p.gate > s {
							seg[i], seg[kept] = seg[kept], seg[i]
							kept++
							continue
						}
						demand = model.SatAdd(demand, p.c)
					}
					pend = kept
					ns := model.MaxTime(prec, demand)
					if ns <= s {
						break
					}
					s = ns
					if pend == 0 {
						// Demand is closed: the next round would only
						// reconfirm s.
						break
					}
				}
				if s > res.Bounds[nid].MinStart {
					res.Bounds[nid].MinStart = s
					res.Bounds[nid].MinFinish = model.SatAdd(s, exec[nid].B)
					changed = true
					improved = true
					for _, e := range node.Out {
						dirty[e.To] = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	return improved
}

// worstFinish computes the worst-case finish of job nid given its
// worst-case activation act: act plus the busy window over
// non-excludable higher-priority same-processor jobs.
//
// The static exclusions (priority prefix, zero-wcet jobs, transitive
// relatives) are pre-resolved into the kernel's peer segments, so the
// busy-window recurrence runs as a monotone admission scan: the window
// only grows, hence the admitted peer set only grows, and each round
// partitions the still-pending candidates in place, scanning only what
// the previous rounds could not admit. The admitted contributions and
// the recurrence values match the naive full-rescan formulation term
// for term — saturating addition over non-negative times is
// order-independent — so the fixed point is identical.
func worstFinish(k *holisticKernel, peers []peerState, maxFinish []model.Time, nid platform.NodeID, act, limit model.Time) model.Time {
	own := peers[nid].c
	if own == 0 {
		// Zero-wcet jobs (dropped or uninvoked passive replicas) complete
		// instantaneously upon activation.
		return act
	}
	// Exclusion 1 drops peers that certainly finished before i can first
	// activate: maxFinish[j] <= minAct[i] with maxFinish[j] finite, one
	// compare against finishedBound.
	excl1 := finishedBound(peers[nid].gate)
	// Non-preemptive processors add a single blocking term: at most one
	// lower-priority job can already occupy the processor when i
	// activates, and it then runs to completion. The higher-priority
	// interference window below is kept unchanged — charging jobs that
	// arrive during i's own (unpreemptable) execution is conservative.
	// The block segment is empty on preemptive processors.
	var block model.Time
	for _, pid := range k.blockSeg(nid) {
		p := peers[pid]
		if p.c <= block {
			continue
		}
		// Cannot block: certainly finished before i can activate, or
		// certainly activates after i does. (Relatives were excluded
		// statically: ancestors finished; descendants cannot start.)
		if maxFinish[pid] <= excl1 {
			continue
		}
		if p.gate >= act {
			continue
		}
		block = p.c
	}
	base := model.SatAdd(own, block)
	seg := k.interfSeg(nid)
	win := base
	var sum model.Time
	pend := len(seg)
	for {
		// Admit every pending peer that can activate before the current
		// window closes (exclusion 3 is the only window-dependent test;
		// exclusion 1 and the zero-wcet test depend only on state fixed
		// for the whole call, so resolving them once at admission time is
		// exact). Admitted and statically-excluded entries swap behind the
		// pending prefix, so the next round scans only what this one
		// could not decide.
		threshold := model.SatAdd(act, win)
		kept := 0
		for i := 0; i < pend; i++ {
			pid := seg[i]
			p := peers[pid]
			if p.c == 0 {
				continue // dropped or uninvoked: contributes nothing
			}
			if p.gate >= threshold {
				seg[i], seg[kept] = seg[kept], seg[i]
				kept++
				continue
			}
			if maxFinish[pid] <= excl1 {
				continue
			}
			sum = model.SatAdd(sum, p.c)
		}
		pend = kept
		next := model.SatAdd(base, sum)
		if next > limit {
			return model.Infinity
		}
		if next == win {
			break
		}
		win = next
		if pend == 0 {
			// No-jitter fast path: every admissible peer is already in,
			// so the recurrence is closed — the next round would only
			// reconfirm win.
			break
		}
	}
	fin := model.SatAdd(act, win)
	if fin > limit {
		return model.Infinity
	}
	return fin
}

type edgeKey struct{ from, to platform.NodeID }

// busMsg is one cross-processor message competing for the arbitrated
// fabric (see updateBusDelays).
type busMsg struct {
	key    edgeKey
	c      model.Time
	prio   int
	sender platform.NodeID
	// domain partitions the contention space (0 = shared bus; per
	// destination processor under crossbar arbitration).
	domain int
}

// initBusDelays resets the reusable delay map to the uncontended
// transmission times, summed over parallel channels (see
// updateBusDelays).
func initBusDelays(sys *platform.System, out map[edgeKey]model.Time) map[edgeKey]model.Time {
	if !sys.Arch.Fabric.Arbitrated() {
		return nil
	}
	clear(out)
	for _, node := range sys.Nodes {
		for _, e := range node.Out {
			if e.Delay > 0 {
				k := edgeKey{e.From, e.To}
				out[k] = model.SatAdd(out[k], e.Delay)
			}
		}
	}
	return out
}

// updateBusDelays recomputes worst-case message delays on the shared bus:
// non-preemptive fixed-priority arbitration with the sender's priority.
// Every cross-processor edge is one message per hyperperiod; a message
// suffers blocking by the largest lower-priority message plus the
// transmission of every higher-priority message that cannot be excluded
// (sender certainly finished before this sender could start, or certainly
// starts after this message's window). Returns true when any delay
// changed.
//
// Parallel channels between the same two jobs are one message: the
// sender queues them together at one priority and the receiver waits for
// all of them, so the message carries their summed transmission time.
func updateBusDelays(sys *platform.System, exec []ExecBounds, res *Result, maxFinish []model.Time, delays map[edgeKey]model.Time, s *holisticScratch) bool {
	// Under crossbar arbitration, messages contend only with messages to
	// the same destination processor; the shared bus is one contention
	// domain for everything.
	crossbar := sys.Arch.Fabric.EffectiveKind() == model.FabricCrossbar
	msgs := s.msgs[:0]
	for _, node := range sys.Nodes {
		first := len(msgs)
	edges:
		for _, e := range node.Out {
			if e.Delay <= 0 {
				continue
			}
			if exec[e.From].W == 0 {
				continue // dropped sender transmits nothing
			}
			key := edgeKey{e.From, e.To}
			for i := first; i < len(msgs); i++ {
				if msgs[i].key == key {
					msgs[i].c = model.SatAdd(msgs[i].c, e.Delay)
					continue edges
				}
			}
			dom := 0
			if crossbar {
				dom = int(sys.Nodes[e.To].Proc) + 1
			}
			msgs = append(msgs, busMsg{
				key: key, c: e.Delay,
				prio: node.Priority, sender: e.From, domain: dom,
			})
		}
	}
	s.msgs = msgs
	limit := sys.Hyperperiod * 4
	changed := false
	for _, m := range msgs {
		var block model.Time
		for _, o := range msgs {
			if o.key == m.key || o.domain != m.domain {
				continue
			}
			if o.prio >= m.prio && o.c > block {
				block = o.c
			}
		}
		win := m.c + block
		for iter := 0; iter < 1_000_000; iter++ {
			next := m.c + block
			for _, o := range msgs {
				if o.key == m.key || o.domain != m.domain || o.prio >= m.prio {
					continue
				}
				// Exclude senders that certainly finished before this
				// sender could finish (message readiness) — conservative
				// overlap test on sender windows.
				if maxFinish[o.sender] <= res.Bounds[m.sender].MinStart && !maxFinish[o.sender].IsInfinite() {
					continue
				}
				if res.Bounds[o.sender].MinStart >= model.SatAdd(model.SatAdd(maxFinish[m.sender], win), 0) {
					continue
				}
				next = model.SatAdd(next, o.c)
			}
			if next > limit {
				win = model.Infinity
				break
			}
			if next == win {
				break
			}
			win = next
		}
		if delays[m.key] != win {
			delays[m.key] = win
			changed = true
		}
	}
	return changed
}
