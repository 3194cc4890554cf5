package sched

import (
	"mcmap/internal/platform"
)

// This file holds the busy-window kernel data of the holistic backend:
// per-job peer lists precomputed once per SYSTEM so the fixed-point
// sweeps stop rescanning every same-processor neighbour on every
// iteration.
//
// The naive worstFinish re-walks the full priority-ordered processor
// list on each of its busy-window iterations, re-testing the static
// exclusions — priority prefix, transitive-relative bitsets — every
// time. Those depend only on the compiled system, never on the
// execution vector, so build hoists them into flat per-job peer
// segments that stay valid for every exec vector analyzed against the
// same system: the fault-free pass and every fault scenario of
// Algorithm 1 share one kernel build
// (contributions are read from the exec vector at scan time, so
// dropped jobs simply contribute zero). The pooled scratch remembers
// which system its kernel was built for and rebuilds only when the
// system changes.
//
// The only window-dependent exclusion left in worstFinish is "peer
// certainly activates after the window closes" (minAct[j] >= act +
// win), and because the window grows monotonically, the admitted peer
// set only ever grows: worstFinish partitions each segment in place
// into admitted and still-pending candidates, so every recurrence
// round scans only the candidates the previous rounds could not admit,
// with the interference sum maintained incrementally. One worstFinish
// call then costs O(|peers|) in the common case instead of
// O(iterations x |peers|), and the no-jitter case — every eligible
// peer admissible when the window opens — closes the recurrence in a
// single scan (the job-level degeneration of the classical
// ceiling-term fast path: each compiled node is one job, so the
// periodic ceil((t+J)/T) request bound collapses to 0/1 admission).
//
// The same structure serves improveBestCase: its guaranteed-demand
// fixed point admits higher-priority peers by worst-case activation
// against a monotonically growing start bound, so the demand segments
// run through the identical partition scan over best-case execution
// times.
//
// The reader segments invert interf and block: they list, per job, the
// jobs whose worstFinish reads its finish, which is what worstPass
// wakes when that finish moves.

// holisticKernel is the per-system peer-list working set, recycled
// through the pooled holisticScratch. Segments are stored flat with
// per-node offsets to keep the build allocation-light, as 4-byte node
// indices to halve their footprint and scan traffic. Segment order
// carries no meaning — the admission scans permute entries in place.
type holisticKernel struct {
	// interf[interfOff[i]:interfOff[i+1]] lists job i's statically
	// non-excludable interference peers: same processor, higher
	// priority, not a transitive predecessor.
	interf    []int32
	interfOff []int32
	// block segments list the blocking candidates of non-preemptive
	// jobs: same processor, lower priority, not a transitive relative
	// in either direction.
	block    []int32
	blockOff []int32
	// demand segments back improveBestCase: higher-priority same-
	// processor peers (guaranteed-demand candidates).
	demand    []int32
	demandOff []int32
	// readers segments list, per job j, every job whose interf or
	// block segment holds j.
	readers   []int32
	readerOff []int32
}

// reserve returns an empty slice with capacity at least c, reusing s's.
func reserve(s []int32, c int) []int32 {
	if cap(s) < c {
		return make([]int32, 0, c)
	}
	return s[:0]
}

// resizeOffsets returns a slice of length n+1, reusing capacity.
func resizeOffsets(s []int32, n int) []int32 {
	if cap(s) < n+1 {
		return make([]int32, n+1)
	}
	return s[:n+1]
}

// build fills the static peer segments for one compiled system. The
// result is independent of any execution vector, so callers cache it
// per system (see holisticScratch.prep).
func (k *holisticKernel) build(sys *platform.System) {
	n := len(sys.Nodes)
	// Reserve each segment array once, from counts known before the
	// fill: a job's demand segment holds exactly the jobs above it in
	// its processor's priority-sorted list (its rank there), its
	// interference segment at most those, and a non-preemptive job's
	// blocking segment at most the jobs below it.
	var above, below int
	for _, ids := range sys.ProcNodes {
		pairs := len(ids) * (len(ids) - 1) / 2
		above += pairs
		if len(ids) > 0 && sys.Nodes[ids[0]].NonPreemptive {
			below += pairs
		}
	}
	k.interf = reserve(k.interf, above)
	k.demand = reserve(k.demand, above)
	k.block = reserve(k.block, below)
	k.interfOff = resizeOffsets(k.interfOff, n)
	k.blockOff = resizeOffsets(k.blockOff, n)
	k.demandOff = resizeOffsets(k.demandOff, n)
	for nid := 0; nid < n; nid++ {
		k.interfOff[nid] = int32(len(k.interf))
		k.blockOff[nid] = int32(len(k.block))
		k.demandOff[nid] = int32(len(k.demand))
		node := sys.Nodes[nid]
		id := platform.NodeID(nid)
		for _, pid := range sys.ProcNodes[node.Proc] {
			p := sys.Nodes[pid]
			if p.Priority >= node.Priority {
				if !node.NonPreemptive {
					break // peers are priority-sorted: nothing left
				}
				// Lower-priority peers are blocking candidates of
				// non-preemptive jobs.
				if pid == id || p.Priority == node.Priority {
					continue
				}
				if sys.IsAncestor(pid, id) || sys.IsAncestor(id, pid) {
					continue
				}
				k.block = append(k.block, int32(pid))
				continue
			}
			k.demand = append(k.demand, int32(pid))
			if sys.IsAncestor(pid, id) {
				continue
			}
			k.interf = append(k.interf, int32(pid))
		}
	}
	k.interfOff[n] = int32(len(k.interf))
	k.blockOff[n] = int32(len(k.block))
	k.demandOff[n] = int32(len(k.demand))

	// Invert interf and block by counting sort: count each job's
	// readers into readerOff[j+1], turn the counts into segment starts,
	// fill by advancing each start to its segment's end, then shift the
	// offsets back by one slot.
	k.readerOff = resizeOffsets(k.readerOff, n)
	clear(k.readerOff)
	for _, j := range k.interf {
		k.readerOff[j+1]++
	}
	for _, j := range k.block {
		k.readerOff[j+1]++
	}
	for j := 1; j <= n; j++ {
		k.readerOff[j] += k.readerOff[j-1]
	}
	total := int(k.readerOff[n])
	if cap(k.readers) < total {
		k.readers = make([]int32, total)
	}
	k.readers = k.readers[:total]
	for r := 0; r < n; r++ {
		for _, j := range k.interfSeg(platform.NodeID(r)) {
			k.readers[k.readerOff[j]] = int32(r)
			k.readerOff[j]++
		}
		for _, j := range k.blockSeg(platform.NodeID(r)) {
			k.readers[k.readerOff[j]] = int32(r)
			k.readerOff[j]++
		}
	}
	copy(k.readerOff[1:], k.readerOff[:n])
	k.readerOff[0] = 0
}

func (k *holisticKernel) interfSeg(nid platform.NodeID) []int32 {
	return k.interf[k.interfOff[nid]:k.interfOff[nid+1]]
}

func (k *holisticKernel) blockSeg(nid platform.NodeID) []int32 {
	return k.block[k.blockOff[nid]:k.blockOff[nid+1]]
}

func (k *holisticKernel) demandSeg(nid platform.NodeID) []int32 {
	return k.demand[k.demandOff[nid]:k.demandOff[nid+1]]
}

func (k *holisticKernel) readerSeg(nid platform.NodeID) []int32 {
	return k.readers[k.readerOff[nid]:k.readerOff[nid+1]]
}
