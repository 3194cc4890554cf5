package sched

import (
	"sync"

	"mcmap/internal/model"
)

// This file is the compiled twin of holistic.go's analysis pipeline: the
// same four-phase fixed point (A best-case precedence, B worst-case, C
// best-case improvement, D worst-case re-run), iterated over the dense
// columns of a CompiledSystem instead of the pointer graph. Everything
// observable is bit-identical to the pointer path — bounds and verdicts
// (see the parity suite in compiled_test.go); only
// Result.Iterations, which sched.Result documents as a diagnostic
// outside the equality contract, comes out lower, because the compiled
// passes sweep restricted closures where the pointer path re-sweeps
// whole regions. The structural upgrades over the pointer path:
//
// The worst-case re-run (phase D) sweeps only the reader closure of the
// nodes the improvement pass lifted. Outside that closure the re-run's
// recurrence and inputs are exactly phase B's, so those nodes are
// pinned at the phase-B fixed point; inside it nodes are re-seeded down
// from their improved best-case bounds, and a monotone recurrence
// iterated from below a fixed point converges to the least fixed point
// no matter the sweep order — the same values the full re-sweep finds.
//
// The hot admission scans persist their state across calls:
//
// The pointer path's worstFinish partitions its peer segment per CALL:
// every invocation restarts with the full segment pending and re-derives
// the admitted set from scratch, so a node recomputed k times per pass
// scans its peers k times. All three admission tests, however, are
// monotone over one PASS, not just one call: the gate threshold act+win
// only grows (activations and windows rise monotonically toward the
// least fixed point), the finished-before-activation exclusion compares
// a constant bound against finishes that only grow, and zero-wcet drops
// are constant. The compiled scan therefore keeps per-node admission
// state ALIVE across calls: each segment is partitioned into three zones
//
//	[off:inc)  included — contribution folded into the persisted sum
//	[inc:adm)  deferred — gate-admitted but currently excluded
//	           (certainly finished before activation; re-tested per
//	           call, since finishes grow past the bound monotonically)
//	[adm:end)  pending  — gate not yet reached
//
// and the busy-window recurrence re-seeds from the previous call's
// converged window instead of from base. Seeding below the fixed point
// is exact: the per-call recurrence operator is monotone and its inputs
// (activation, base, the finish vector) only grow across a pass, so the
// previous fixed point is a valid seed for the next call and every call
// still returns exactly the value the from-scratch recurrence returns —
// including the divergence cutoffs, which depend only on where the fixed
// point lies relative to the limit. Each peer is thus gate-decided once
// per pass instead of once per call, and the pass-wide scan cost drops
// from O(recomputes x peers) to O(peers + deferred re-tests).
//
// The same structure serves the guaranteed-demand scan of the best-case
// improvement: its admission gate (worst-case activation vs the growing
// start bound) is monotone over the pass, so demand segments persist an
// included zone and a running sum the same way.
//
// One further structural saving rides on the persistence. Each node also
// remembers the smallest gate among its pending peers, so a scan round
// whose threshold cannot reach that gate is skipped outright — in steady
// sweeps a recompute touches no segment entries at all.

// nodeScan is one node's persistent admission-scan state, packed into a
// single cache line's worth of fields so a recompute loads and stores it
// in one touch: the zone pointers into the working segment, a lower
// bound on the smallest gate still pending (a scan whose threshold does
// not exceed it cannot admit anything), and the persisted recurrence
// seeds (converged window, running contribution sum).
type nodeScan struct {
	inc, adm int32
	minPend  model.Time
	win, sum model.Time
}

// compiledScratch is one worker's reusable working set for the compiled
// pipeline — the columnar counterpart of holisticScratch, extended with
// the persistent admission-scan state. Unlike the pointer path there is
// no per-pass peer packing: with each segment entry decided roughly once
// per pass, reading the exec and gate columns directly is cheaper than
// materializing a packed copy per pass.
type compiledScratch struct {
	minAct, maxFinish, activation []model.Time
	sweepDirty                    []bool
	// wflags carries the worst-pass invalidation state, two bits per
	// node so the sweep loads and clears both with one byte access:
	// bit 0 — an activation input (a predecessor's finish) moved; bit 1
	// — a window input (an interference or blocking peer's finish)
	// moved. Together they are the exact counterpart of the pointer
	// path's per-processor priority watermarks.
	wflags []uint8
	// seg points at the pass's working copy of the active peer table
	// (segI for the worst-case passes, segD for the improvement pass),
	// permuted in place by the zone moves; scan holds the per-node zone
	// state. The working copies are made once per compiled system (segSys
	// tags the owner): the zone moves only permute within each node's
	// segment, so the permuted copy still holds exactly the original peer
	// sets and later passes just reset the zone pointers.
	seg        []int32
	segI, segD []int32
	segSys     *CompiledSystem
	scan       []nodeScan
	stack      []int32
	// liftDirty marks the nodes the improvement pass changed — a lifted
	// minAct also marks its window readers, whose admission gates read it.
	// Its reader closure is the only region where the final worst-case
	// fixed point can differ from phase B's, so the re-run (phase D)
	// sweeps just that closure (affD/orderD are its scratch).
	liftDirty []bool
	affD      []bool
	orderD    []int32
}

// compiledFreelist pools compiledScratch instances, same discipline as
// scratchFreelist.
type compiledFreelist struct {
	mu   sync.Mutex
	free []*compiledScratch
}

func (p *compiledFreelist) Get() *compiledScratch {
	p.mu.Lock()
	var s *compiledScratch
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if s == nil {
		s = &compiledScratch{}
	}
	return s
}

func (p *compiledFreelist) Put(s *compiledScratch) {
	p.mu.Lock()
	if len(p.free) < scratchFreelistCap {
		p.free = append(p.free, s)
	}
	p.mu.Unlock()
}

// resizeInt32s returns a slice of length n, reusing capacity.
func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// resizeUint8s returns a zeroed slice of length n, reusing capacity.
func resizeUint8s(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func (h *Holistic) getCScratch(cs *CompiledSystem) *compiledScratch {
	s := h.cscratch.Get()
	s.prep(cs)
	return s
}

// prep readies the scratch for one analysis of cs — the per-call state
// a freelist checkout establishes (see holisticScratch.prep).
func (s *compiledScratch) prep(cs *CompiledSystem) {
	n := cs.N
	s.minAct = resizeTimes(s.minAct, n)
	s.maxFinish = resizeTimes(s.maxFinish, n)
	s.activation = resizeTimes(s.activation, n)
	if s.segSys != cs {
		s.segI = resizeInt32s(s.segI, len(cs.Interf))
		copy(s.segI, cs.Interf)
		s.segD = resizeInt32s(s.segD, len(cs.Demand))
		copy(s.segD, cs.Demand)
		s.segSys = cs
	}
	if cap(s.scan) < n {
		s.scan = make([]nodeScan, n)
	}
	s.scan = s.scan[:n]
}

// resetScan (re)initializes the persistent admission state for one pass
// over the given working segment (getCScratch copied it from the peer
// table once for this compiled system): zones empty, recurrence seeds
// zeroed, pending minimum forced below any threshold so the first scan
// always runs. Only the swept nodes are reset — the rest are never
// scanned — and segment contents are left as the previous pass permuted
// them, which is the same per-node sets.
func (s *compiledScratch) resetScan(seg, off []int32, order []int32) {
	s.seg = seg
	if len(order) == len(s.scan) {
		for i := range s.scan {
			o := off[i]
			s.scan[i] = nodeScan{inc: o, adm: o}
		}
		return
	}
	for _, nid := range order {
		o := off[nid]
		s.scan[nid] = nodeScan{inc: o, adm: o}
	}
}

// AnalyzeCompiled runs the holistic analysis over the columnar tables.
// It converges to the same Bounds and Schedulable verdict as
// Analyze(cs.Sys, exec) — Iterations may be lower, as documented on
// Result — and arbitrated fabrics delegate to the pointer path, which
// models bus contention.
func (h *Holistic) AnalyzeCompiled(cs *CompiledSystem, exec []ExecBounds) (*Result, error) {
	if cs.Arbitrated {
		return h.Analyze(cs.Sys, exec)
	}
	s := h.getCScratch(cs)
	defer h.cscratch.Put(s)
	return h.analyzeCompiledWith(cs, exec, s)
}

// analyzeCompiledWith is AnalyzeCompiled over a caller-owned scratch
// for a non-arbitrated lowering; s must have been prepped for cs
// immediately before the call.
func (h *Holistic) analyzeCompiledWith(cs *CompiledSystem, exec []ExecBounds, s *compiledScratch) (*Result, error) {
	if err := ValidateExec(cs.Sys, exec); err != nil {
		return nil, err
	}
	n := cs.N
	res := &Result{Bounds: make([]Bounds, n)}

	minAct := s.minAct
	compiledBestCase(cs, exec, res, minAct)

	maxFinish := s.maxFinish
	activation := s.activation
	diverged := h.compiledWorstPass(cs, exec, res, minAct, maxFinish, activation, s, cs.Order)

	if !diverged && h.compiledImprove(cs, exec, res, minAct, activation, s, cs.Order) {
		diverged = h.compiledWorstPass(cs, exec, res, minAct, maxFinish, activation, s, s.liftClosure(cs, cs.Order))
	}

	if diverged {
		for i := range maxFinish {
			maxFinish[i] = model.Infinity
		}
	}
	res.Schedulable = true
	for i := range maxFinish {
		res.Bounds[i].MaxFinish = maxFinish[i]
		if maxFinish[i].IsInfinite() || maxFinish[i] > cs.AbsDeadline[i] {
			res.Schedulable = false
		}
	}
	return res, nil
}

// liftClosure materializes the sweep order for the worst-case re-run
// (phase D): the reader closure of everything the improvement pass
// lifted, filtered out of the enclosing order. Outside that closure the
// re-run's recurrence and inputs are identical to phase B's, so those
// nodes are pinned at the phase-B fixed point already sitting in the
// scratch columns; inside it every node is re-seeded down from its
// improved best-case bound, and iterating the monotone recurrence from
// below a fixed point converges to the least fixed point regardless of
// sweep order — the same place the full re-run lands.
func (s *compiledScratch) liftClosure(cs *CompiledSystem, order []int32) []int32 {
	s.affD = resizeBools(s.affD, cs.N)
	var count int
	count, s.stack = compiledClosure(cs, s.liftDirty, s.affD, s.stack)
	s.orderD = s.orderD[:0]
	if count >= len(order) {
		s.orderD = append(s.orderD, order...)
		return s.orderD
	}
	for _, nid := range order {
		if s.affD[nid] {
			s.orderD = append(s.orderD, nid)
		}
	}
	return s.orderD
}

// compiledClosure expands the dirty set to its transitive closure along
// the columnar reader segments, marking every reached node in aff (len(aff)
// == nodes, all false on entry) and returning the marked count plus the
// reusable stack.
func compiledClosure(cs *CompiledSystem, dirty, aff []bool, stack []int32) (int, []int32) {
	count := 0
	stack = stack[:0]
	for i, d := range dirty {
		if d && !aff[i] {
			aff[i] = true
			count++
			stack = append(stack, int32(i))
		}
	}
	readers, off := cs.Readers, cs.ReadersOff
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for e := off[id]; e < off[id+1]; e++ {
			rid := readers[e]
			if !aff[rid] {
				aff[rid] = true
				count++
				stack = append(stack, rid)
			}
		}
	}
	return count, stack
}

// compiledBestCase is bestCasePrec over the columns: one topological
// sweep filling MinStart/MinFinish/minAct from precedence chains only.
func compiledBestCase(cs *CompiledSystem, exec []ExecBounds, res *Result, minAct []model.Time) {
	inOff, inFrom, inDelay := cs.InOff, cs.InFrom, cs.InDelay
	for _, nid32 := range cs.Order {
		nid := int(nid32)
		start := cs.Release[nid]
		for e := inOff[nid]; e < inOff[nid+1]; e++ {
			f := model.SatAdd(res.Bounds[inFrom[e]].MinFinish, inDelay[e])
			if f > start {
				start = f
			}
		}
		minAct[nid] = start
		res.Bounds[nid].MinStart = start
		res.Bounds[nid].MinFinish = model.SatAdd(start, exec[nid].B)
	}
}

// compiledWorstPass is worstPass over the columns (ideal fabrics only —
// arbitrated systems never reach the compiled path). Seeding, sweep
// order and change detection replicate the pointer path move for move;
// the sweep-to-sweep skip, however, is exact instead of heuristic. The
// pointer path wakes a whole processor by priority watermark after any
// change, re-evaluating every plausibly affected peer; here an accepted
// change invalidates precisely the nodes that read the changed finish —
// successors through the out-edges (activation inputs, as before) and
// window readers through the compiled reverse adjacency (interference
// and blocking inputs). A node with neither flag set is a proven no-op:
// its activation inputs and every peer column its admission scans read
// are unchanged since its last evaluation, and the persisted scan state
// makes the recurrence return its previous fixed point verbatim. Eliding
// such evaluations drops nothing observable — change flags and bounds
// match the pointer path exactly.
func (h *Holistic) compiledWorstPass(cs *CompiledSystem, exec []ExecBounds, res *Result, minAct, maxFinish, activation []model.Time, s *compiledScratch, order []int32) bool {
	n := cs.N
	s.wflags = resizeUint8s(s.wflags, n)
	flags := s.wflags
	for _, nid := range order {
		maxFinish[nid] = res.Bounds[nid].MinFinish
		activation[nid] = res.Bounds[nid].MinStart
		flags[nid] = 1
	}
	limit := cs.Hyperperiod * 4
	s.resetScan(s.segI, cs.InterfOff, order)

	inOff, inFrom, inDelay := cs.InOff, cs.InFrom, cs.InDelay
	outOff, outTo := cs.OutOff, cs.OutTo
	wrOff, wreaders := cs.WReadersOff, cs.WReaders
	maxIters := h.maxOuterIters()
	iters := 0
	for ; iters < maxIters; iters++ {
		changed := false
		for _, nid32 := range order {
			nid := int(nid32)
			f := flags[nid]
			if f == 0 {
				continue
			}
			flags[nid] = 0
			peerMoved := f&2 != 0
			var act model.Time
			if f&1 != 0 {
				act = cs.Release[nid]
				for e := inOff[nid]; e < inOff[nid+1]; e++ {
					f := model.SatAdd(maxFinish[inFrom[e]], inDelay[e])
					if f > act {
						act = f
					}
				}
			} else {
				// The activation depends only on predecessor finishes, and
				// those mark this node dirty when they move: a purely
				// peer-triggered re-evaluation reuses the cached value (the
				// first evaluation each pass is always dirty-seeded).
				act = activation[nid]
			}
			fin := model.Time(model.Infinity)
			if !act.IsInfinite() {
				fin = compiledWorstFinish(cs, s, exec, minAct, maxFinish, nid, act, limit, peerMoved)
			}
			if act != activation[nid] || fin != maxFinish[nid] {
				changed = true
				activation[nid] = act
				maxFinish[nid] = fin
				for e := outOff[nid]; e < outOff[nid+1]; e++ {
					flags[outTo[e]] |= 1
				}
				for e := wrOff[nid]; e < wrOff[nid+1]; e++ {
					flags[wreaders[e]] |= 2
				}
			}
		}
		if !changed {
			break
		}
	}
	res.Iterations += iters
	return iters >= maxIters
}

// compiledWorstFinish is worstFinish with pass-persistent admission
// state (see the file comment). Every call returns exactly what the
// from-scratch recurrence would: the persisted zones and window seed are
// always below the call's fixed point, and the monotone recurrence
// converges to the same place from any seed below it.
func compiledWorstFinish(cs *CompiledSystem, s *compiledScratch, exec []ExecBounds, minAct, maxFinish []model.Time, nid int, act, limit model.Time, peerMoved bool) model.Time {
	own := exec[nid].W
	if own == 0 {
		// Zero-wcet jobs (dropped or uninvoked passive replicas) complete
		// instantaneously upon activation.
		return act
	}
	// Exclusion bound, as in the pointer path: certainly-finished peers
	// (maxFinish <= minAct, finite) cannot contribute; Infinity-1 admits
	// exactly the divergent peers when minAct is infinite.
	excl1 := minAct[nid]
	if excl1.IsInfinite() {
		excl1 = model.Infinity - 1
	}
	var block model.Time
	for e := cs.BlockOff[nid]; e < cs.BlockOff[nid+1]; e++ {
		pid := cs.Block[e]
		c := exec[pid].W
		if c <= block {
			continue
		}
		if maxFinish[pid] <= excl1 {
			continue
		}
		if minAct[pid] >= act {
			continue
		}
		block = c
	}
	base := model.SatAdd(own, block)

	seg := s.seg
	st := &s.scan[nid]
	inc, adm := st.inc, st.adm
	end := cs.InterfOff[nid+1]
	sum := st.sum
	// Re-test the deferred zone only when a window peer's finish actually
	// moved since the last evaluation: the exclusion compares the constant
	// bound against finishes that only grow, so with no movement nothing
	// can have crossed it. Entries leave the zone monotonically.
	if peerMoved && inc < adm {
		for i := inc; i < adm; i++ {
			pid := seg[i]
			if maxFinish[pid] > excl1 {
				sum = model.SatAdd(sum, exec[pid].W)
				seg[i] = seg[inc]
				seg[inc] = pid
				inc++
			}
		}
	}
	win := st.win
	if base > win {
		win = base
	}
	minPend := st.minPend
	for {
		threshold := model.SatAdd(act, win)
		// A round whose threshold cannot pass the smallest pending gate
		// admits nothing; skip the scan outright. The reset seeds minPend
		// at 0, so the first call always takes a full scan.
		if adm < end && minPend < threshold {
			minPend = model.Infinity
			for i := adm; i < end; i++ {
				pid := seg[i]
				c := exec[pid].W
				if c == 0 {
					// Contributes nothing, ever: park it in the included
					// zone so no later round or call rescans it.
					seg[i] = seg[adm]
					seg[adm] = seg[inc]
					seg[inc] = pid
					inc++
					adm++
					continue
				}
				gate := minAct[pid]
				if gate >= threshold {
					if gate < minPend {
						minPend = gate
					}
					continue // still pending
				}
				if maxFinish[pid] <= excl1 {
					seg[i] = seg[adm]
					seg[adm] = pid
					adm++ // gate-admitted, currently excluded: defer
					continue
				}
				sum = model.SatAdd(sum, c)
				seg[i] = seg[adm]
				seg[adm] = seg[inc]
				seg[inc] = pid
				inc++
				adm++
			}
		}
		next := model.SatAdd(base, sum)
		if next > limit {
			// The fixed point lies beyond the limit and the pass inputs
			// only grow, so every later call diverges too; limit+1 makes
			// the next call's first round confirm that immediately.
			*st = nodeScan{inc: inc, adm: adm, minPend: minPend, win: limit + 1, sum: sum}
			return model.Infinity
		}
		if next == win {
			break
		}
		win = next
		if adm == end {
			// No pending peers left: the recurrence is closed.
			break
		}
	}
	*st = nodeScan{inc: inc, adm: adm, minPend: minPend, win: win, sum: sum}
	fin := model.SatAdd(act, win)
	if fin > limit {
		return model.Infinity
	}
	return fin
}

// compiledImprove is improveBestCase over the columns, with the
// guaranteed-demand scan persisting its included zone and running sum
// across calls (the admission gate — worst-case activation vs the
// growing start bound — is monotone over the pass).
func (h *Holistic) compiledImprove(cs *CompiledSystem, exec []ExecBounds, res *Result, minAct, activation []model.Time, sc *compiledScratch, order []int32) (improved bool) {
	n := cs.N
	sc.sweepDirty = resizeBools(sc.sweepDirty, n)
	dirty := sc.sweepDirty
	for _, nid := range order {
		dirty[nid] = true
	}
	sc.liftDirty = resizeBools(sc.liftDirty, n)
	lift := sc.liftDirty
	sc.resetScan(sc.segD, cs.DemandOff, order)

	inOff, inFrom, inDelay := cs.InOff, cs.InFrom, cs.InDelay
	outOff, outTo := cs.OutOff, cs.OutTo
	wrOff, wreaders := cs.WReadersOff, cs.WReaders
	seg := sc.seg
	for sweep := 0; sweep < 64; sweep++ {
		changed := false
		for _, nid32 := range order {
			nid := int(nid32)
			if !dirty[nid] {
				continue
			}
			dirty[nid] = false
			prec := cs.Release[nid]
			for e := inOff[nid]; e < inOff[nid+1]; e++ {
				f := model.SatAdd(res.Bounds[inFrom[e]].MinFinish, inDelay[e])
				if f > prec {
					prec = f
				}
			}
			if prec > minAct[nid] {
				minAct[nid] = prec
				changed = true
				improved = true
				// The lifted exclusion bound feeds this node's own window
				// and, as an admission gate, every window that reads it.
				lift[nid] = true
				for e := wrOff[nid]; e < wrOff[nid+1]; e++ {
					lift[wreaders[e]] = true
				}
			}
			if exec[nid].W == 0 {
				// Timeless jobs complete at activation and never queue;
				// the guaranteed-demand guard must not delay them.
				if prec > res.Bounds[nid].MinStart {
					res.Bounds[nid].MinStart = prec
					res.Bounds[nid].MinFinish = prec
					changed = true
					improved = true
					lift[nid] = true
					for e := outOff[nid]; e < outOff[nid+1]; e++ {
						dirty[outTo[e]] = true
					}
				}
				continue
			}
			sVal := model.MaxTime(prec, res.Bounds[nid].MinStart)
			st := &sc.scan[nid]
			inc := st.inc
			end := cs.DemandOff[nid+1]
			demand := st.sum
			minPend := st.minPend
			for {
				// Demand admission is non-strict (gate <= bound), so the
				// scan is skippable only when the smallest pending gate
				// lies strictly beyond the bound.
				if inc < end && minPend <= sVal {
					minPend = model.Infinity
					for i := inc; i < end; i++ {
						pid := seg[i]
						gate := activation[pid]
						if gate > sVal || gate.IsInfinite() {
							if gate < minPend {
								minPend = gate
							}
							continue // still pending
						}
						demand = model.SatAdd(demand, exec[pid].B)
						seg[i] = seg[inc]
						seg[inc] = pid
						inc++
					}
				}
				ns := model.MaxTime(prec, demand)
				if ns <= sVal {
					break
				}
				sVal = ns
				if inc == end {
					// Demand is closed: the next round would only
					// reconfirm sVal.
					break
				}
			}
			st.inc = inc
			st.sum = demand
			st.minPend = minPend
			if sVal > res.Bounds[nid].MinStart {
				res.Bounds[nid].MinStart = sVal
				res.Bounds[nid].MinFinish = model.SatAdd(sVal, exec[nid].B)
				changed = true
				improved = true
				lift[nid] = true
				for e := outOff[nid]; e < outOff[nid+1]; e++ {
					dirty[outTo[e]] = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return improved
}
