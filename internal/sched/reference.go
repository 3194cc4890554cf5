package sched

import (
	"maps"

	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// Reference is the specification of the holistic analysis: a direct,
// unoptimized transcription of the four phases Holistic runs, kept as a
// test oracle. No production path calls it.
//
// Every phase sweeps every job in graph-major topological order (the
// order of sys.GraphNodes) and evaluates every exclusion test inline
// over sys.ProcNodes: there are no precomputed peer segments, no
// skipping of jobs whose inputs did not move, no scratch reuse and no
// caching. Holistic's optimizations are exact — a skipped job would
// have reproduced its bounds, a segment holds exactly the peers the
// inline tests admit — so both engines walk the same sequence of states
// and agree on Bounds, Schedulable and Iterations. The parity suites
// check exactly that equality.
//
// The phases are stated rely/guarantee style: what each phase assumes
// about its inputs, and what it promises about its outputs.
type Reference struct{}

// Name implements Analyzer.
func (Reference) Name() string { return "holistic-reference" }

// Analyze implements Analyzer.
func (Reference) Analyze(sys *platform.System, exec []ExecBounds) (*Result, error) {
	if err := ValidateExec(sys, exec); err != nil {
		return nil, err
	}
	n := len(sys.Nodes)
	res := &Result{Bounds: make([]Bounds, n)}
	minAct := make([]model.Time, n)
	maxFinish := make([]model.Time, n)
	activation := make([]model.Time, n)

	refPrecedence(sys, exec, res, minAct)
	diverged := refWorstCase(sys, exec, res, minAct, maxFinish, activation)
	if !diverged && refImprove(sys, exec, res, minAct, activation) {
		diverged = refWorstCase(sys, exec, res, minAct, maxFinish, activation)
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
	return res, nil
}

// refPrecedence is phase A, the precedence-only best case.
//
// Relies on: nothing beyond the system and exec (every job is released at
// node.Release, and no input arrives before its producer's bcet has
// elapsed plus the contention-free edge delay).
//
// Guarantees: MinStart = minAct = the earliest time all of a job's
// inputs can be available, and MinFinish = MinStart + bcet. Both are
// lower bounds in every execution, because interference only delays.
func refPrecedence(sys *platform.System, exec []ExecBounds, res *Result, minAct []model.Time) {
	for gi := range sys.GraphNodes {
		for _, nid := range sys.GraphNodes[gi] {
			start := refEarliestInputs(sys, res, nid)
			minAct[nid] = start
			res.Bounds[nid].MinStart = start
			res.Bounds[nid].MinFinish = model.SatAdd(start, exec[nid].B)
		}
	}
}

// refEarliestInputs is the latest best-case arrival over a job's
// inputs, or its release when that is later.
func refEarliestInputs(sys *platform.System, res *Result, nid platform.NodeID) model.Time {
	node := sys.Nodes[nid]
	t := node.Release
	for _, e := range node.In {
		t = model.MaxTime(t, model.SatAdd(res.Bounds[e.From].MinFinish, e.Delay))
	}
	return t
}

// refWorstCase is phases B and D, the worst-case fixed point. It reports
// whether the sweep cap was hit (divergence).
//
// Relies on: minAct[j] is a lower bound on job j's activation and
// Bounds[j].MinStart/MinFinish are lower bounds on its start and finish
// (phase A, or phase C before phase D), all constant for the pass.
//
// Guarantees: starting every job from its best case and sweeping until
// no activation, finish or message delay moves, each job's activation
// is at least the latest worst-case input arrival and its finish at
// least the busy-window bound of refWorstFinish over the final state —
// the least such fixed point above the best case, hence a safe upper
// bound on every finish. Iterations grows by the number of sweeps that
// changed something.
func refWorstCase(sys *platform.System, exec []ExecBounds, res *Result, minAct, maxFinish, activation []model.Time) bool {
	for i := range maxFinish {
		maxFinish[i] = res.Bounds[i].MinFinish
		activation[i] = res.Bounds[i].MinStart
	}
	limit := sys.Hyperperiod * 4
	arbitrated := sys.Arch.Fabric.Arbitrated()
	var delays map[edgeKey]model.Time
	if arbitrated {
		delays = refUncontendedDelays(sys)
	}
	iters := 0
	for ; iters < outerSweepCap; iters++ {
		changed := false
		if arbitrated {
			next := refBusDelays(sys, exec, res, maxFinish, limit)
			if !maps.Equal(next, delays) {
				changed = true
			}
			delays = next
		}
		for gi := range sys.GraphNodes {
			for _, nid := range sys.GraphNodes[gi] {
				node := sys.Nodes[nid]
				act := node.Release
				for _, e := range node.In {
					d := e.Delay
					if arbitrated && d > 0 {
						d = delays[edgeKey{e.From, e.To}]
					}
					act = model.MaxTime(act, model.SatAdd(maxFinish[e.From], d))
				}
				fin := model.Time(model.Infinity)
				if !act.IsInfinite() {
					fin = refWorstFinish(sys, exec, minAct, maxFinish, nid, act, limit)
				}
				if act != activation[nid] || fin != maxFinish[nid] {
					changed = true
					activation[nid] = act
					maxFinish[nid] = fin
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

// refFinishedBefore is exclusion 1: peer p certainly finished before job
// nid can first activate, so it cannot delay nid.
func refFinishedBefore(p, nid platform.NodeID, minAct, maxFinish []model.Time) bool {
	return !maxFinish[p].IsInfinite() && maxFinish[p] <= minAct[nid]
}

// refWorstFinish is the busy-window bound of one job activated at act.
//
// Relies on: act is finite; maxFinish holds the current worst-case
// finishes and minAct the activation lower bounds.
//
// Guarantees: act + the least window w with w = wcet + blocking + the
// wcets of every same-processor higher-priority job that can run inside
// [act, act+w), or Infinity when that exceeds 4 hyperperiods. A
// higher-priority peer is left out only when it is dropped (wcet 0), a
// transitive predecessor (its finish already defines act), certainly
// finished before the job can activate (exclusion 1), or certainly
// activated after the window closes. On a non-preemptive processor the
// blocking term is the largest wcet of a lower-priority, unrelated peer
// that may already hold the processor at act. A timeless job (wcet 0)
// completes at act.
func refWorstFinish(sys *platform.System, exec []ExecBounds, minAct, maxFinish []model.Time, nid platform.NodeID, act, limit model.Time) model.Time {
	own := exec[nid].W
	if own == 0 {
		return act
	}
	node := sys.Nodes[nid]
	peers := sys.ProcNodes[node.Proc]
	var block model.Time
	if node.NonPreemptive {
		for _, p := range peers {
			if sys.Nodes[p].Priority <= node.Priority || sys.IsAncestor(p, nid) || sys.IsAncestor(nid, p) {
				continue
			}
			if refFinishedBefore(p, nid, minAct, maxFinish) || minAct[p] >= act {
				continue
			}
			block = model.MaxTime(block, exec[p].W)
		}
	}
	base := model.SatAdd(own, block)
	win := base
	for {
		var sum model.Time
		for _, p := range peers {
			if sys.Nodes[p].Priority >= node.Priority || sys.IsAncestor(p, nid) || exec[p].W == 0 {
				continue
			}
			if refFinishedBefore(p, nid, minAct, maxFinish) || minAct[p] >= model.SatAdd(act, win) {
				continue
			}
			sum = model.SatAdd(sum, exec[p].W)
		}
		next := model.SatAdd(base, sum)
		if next > limit {
			return model.Infinity
		}
		if next == win {
			break
		}
		win = next
	}
	fin := model.SatAdd(act, win)
	if fin > limit {
		return model.Infinity
	}
	return fin
}

// refImprove is phase C, the best-case improvement. It reports whether
// any bound moved.
//
// Relies on: activation holds phase B's worst-case activations (constant
// for the pass) and Bounds holds valid best-case lower bounds.
//
// Guarantees: every bound only grows and stays a lower bound. minAct
// rises to the latest best-case input arrival under the lifted
// predecessor finishes. A job with a wcet waits, before it can start,
// for the bcets of every same-processor higher-priority job whose
// worst-case activation is no later than its earliest start, so
// MinStart rises to that guaranteed demand (a least fixed point, since
// a later start admits more demand); timeless jobs never queue and keep
// their precedence bound. Sweeps stop when nothing moves, or after 64.
func refImprove(sys *platform.System, exec []ExecBounds, res *Result, minAct, activation []model.Time) (improved bool) {
	for sweep := 0; sweep < 64; sweep++ {
		changed := false
		for gi := range sys.GraphNodes {
			for _, nid := range sys.GraphNodes[gi] {
				b := &res.Bounds[nid]
				prec := refEarliestInputs(sys, res, nid)
				if prec > minAct[nid] {
					minAct[nid] = prec
					changed = true
				}
				if exec[nid].W == 0 {
					if prec > b.MinStart {
						b.MinStart, b.MinFinish = prec, prec
						changed = true
					}
					continue
				}
				s := model.MaxTime(prec, b.MinStart)
				for {
					ns := model.MaxTime(prec, refDemand(sys, exec, activation, nid, s))
					if ns <= s {
						break
					}
					s = ns
				}
				if s > b.MinStart {
					b.MinStart, b.MinFinish = s, model.SatAdd(s, exec[nid].B)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
		improved = true
	}
	return improved
}

// refDemand is the guaranteed higher-priority demand ahead of job nid if
// it starts no earlier than s: the bcets of the same-processor
// higher-priority jobs whose worst-case activation is finite and no
// later than s.
func refDemand(sys *platform.System, exec []ExecBounds, activation []model.Time, nid platform.NodeID, s model.Time) model.Time {
	node := sys.Nodes[nid]
	var demand model.Time
	for _, p := range sys.ProcNodes[node.Proc] {
		if sys.Nodes[p].Priority >= node.Priority {
			continue
		}
		if !activation[p].IsInfinite() && activation[p] <= s {
			demand = model.SatAdd(demand, exec[p].B)
		}
	}
	return demand
}

// refUncontendedDelays maps every fabric message to its contention-free
// transfer time, the delay an arbitrated pass starts from. Parallel
// channels between the same two jobs are one message whose transfer time
// is the sum of theirs.
func refUncontendedDelays(sys *platform.System) map[edgeKey]model.Time {
	delays := map[edgeKey]model.Time{}
	for _, node := range sys.Nodes {
		for _, e := range node.Out {
			if e.Delay > 0 {
				k := edgeKey{e.From, e.To}
				delays[k] = model.SatAdd(delays[k], e.Delay)
			}
		}
	}
	return delays
}

// refBusDelays is fabric arbitration: the worst-case delay of every
// message on a shared bus or crossbar.
//
// Relies on: maxFinish holds the current worst-case finishes and Bounds
// the best-case starts; each pair of jobs linked by cross-processor edges
// exchanges one message per hyperperiod, sent at its sender's priority.
// Parallel channels between the pair are queued together and the
// receiver waits for all of them, so they form one message whose
// transfer time is the sum of theirs.
//
// Guarantees: a message's delay is its transfer time plus the largest
// same-domain message of no higher priority (non-preemptive blocking)
// plus every same-domain higher-priority message whose sender can
// overlap it — excluded only when that sender certainly finished before
// this sender could start, or certainly starts after this message's
// window closes — iterated to its least fixed point, or Infinity past 4
// hyperperiods. The shared bus is one contention domain; a crossbar has
// one per destination processor. A dropped sender (wcet 0) sends nothing
// and keeps its contention-free delay.
func refBusDelays(sys *platform.System, exec []ExecBounds, res *Result, maxFinish []model.Time, limit model.Time) map[edgeKey]model.Time {
	crossbar := sys.Arch.Fabric.EffectiveKind() == model.FabricCrossbar
	type message struct {
		key    edgeKey
		c      model.Time
		prio   int
		sender platform.NodeID
		domain model.ProcID
	}
	delays := refUncontendedDelays(sys)
	var msgs []message
	for k, c := range delays {
		if exec[k.from].W == 0 {
			continue
		}
		var dom model.ProcID
		if crossbar {
			dom = sys.Nodes[k.to].Proc
		}
		msgs = append(msgs, message{k, c, sys.Nodes[k.from].Priority, k.from, dom})
	}
	for _, m := range msgs {
		var block model.Time
		for _, o := range msgs {
			if o.key != m.key && o.domain == m.domain && o.prio >= m.prio {
				block = model.MaxTime(block, o.c)
			}
		}
		win := model.SatAdd(m.c, block)
		for iter := 0; iter < 1_000_000; iter++ {
			next := model.SatAdd(m.c, block)
			for _, o := range msgs {
				if o.key == m.key || o.domain != m.domain || o.prio >= m.prio {
					continue
				}
				if !maxFinish[o.sender].IsInfinite() && maxFinish[o.sender] <= res.Bounds[m.sender].MinStart {
					continue
				}
				if res.Bounds[o.sender].MinStart >= model.SatAdd(maxFinish[m.sender], win) {
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
		delays[m.key] = win
	}
	return delays
}
