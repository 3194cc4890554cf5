// Scenario deduplication support: an exact, allocation-free fingerprint
// index over execution-interval vectors.
//
// The previous implementation built a 16·|V|-byte string key per
// scenario — one O(|V|) allocation per trigger job even when no
// duplicate existed, on the hottest path of the DSE loop. The index
// below hashes the vector into a 128-bit FNV-style fingerprint (no
// allocation) and confirms candidate hits by comparing the stored
// vectors, so dedup stays exact under hash collisions while the common
// miss path allocates nothing beyond the map growth for genuinely new
// vectors.
package core

import (
	"math/bits"

	"mcmap/internal/sched"
)

// execHash is a 128-bit fingerprint of an execution-interval vector.
type execHash struct{ hi, lo uint64 }

// FNV-128 parameters: offset basis 0x6c62272e07bb0142 62b821756295c58d,
// prime 2^88 + 2^8 + 0x3b. The mix below folds whole 64-bit words
// instead of single bytes — 16× fewer multiplies than byte-wise
// FNV-1a, and since every probe is confirmed against the stored vector,
// the hash only has to spread well, not follow the reference stream.
const (
	fnv128BasisHi = 0x6c62272e07bb0142
	fnv128BasisLo = 0x62b821756295c58d
	fnv128PrimeHi = 1 << 24
	fnv128PrimeLo = 0x13b
)

func (h execHash) mix(word uint64) execHash {
	h.lo ^= word
	// (hi·2^64 + lo) · (PrimeHi·2^64 + PrimeLo) mod 2^128.
	carryHi, lo := bits.Mul64(h.lo, fnv128PrimeLo)
	hi := h.hi*fnv128PrimeLo + h.lo*fnv128PrimeHi + carryHi
	return execHash{hi: hi, lo: lo}
}

// hashExec fingerprints an execution-interval vector.
func hashExec(exec []sched.ExecBounds) execHash {
	h := execHash{hi: fnv128BasisHi, lo: fnv128BasisLo}
	for _, e := range exec {
		h = h.mix(uint64(e.B))
		h = h.mix(uint64(e.W))
	}
	return h
}

// execEqual reports whether two vectors are identical.
func execEqual(a, b []sched.ExecBounds) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// execIndex is the fingerprint index over the kept scenarios' vectors.
// Values are indices into the caller's job list. head maps a
// fingerprint to the last index inserted under it and next chains each
// index to the one inserted before it under the same fingerprint (-1
// ends a chain), so a chain is longer than one only under a 128-bit
// collision and no fingerprint owns a slice of its own.
type execIndex struct {
	head map[execHash]int32
	next []int32
}

func newExecIndex(capacity int) *execIndex {
	return &execIndex{head: make(map[execHash]int32, capacity)}
}

// reset empties the index, keeping its memory.
func (x *execIndex) reset() {
	if x.head == nil {
		x.head = make(map[execHash]int32)
	}
	clear(x.head)
	x.next = x.next[:0]
}

// lookup reports whether an identical vector is already indexed.
// vecOf resolves an indexed slot back to its stored vector.
func (x *execIndex) lookup(h execHash, exec []sched.ExecBounds, vecOf func(int32) []sched.ExecBounds) bool {
	idx, ok := x.head[h]
	for ok {
		if execEqual(vecOf(idx), exec) {
			return true
		}
		idx = x.next[idx]
		ok = idx >= 0
	}
	return false
}

// insert indexes a kept vector under its fingerprint.
func (x *execIndex) insert(h execHash, idx int32) {
	for int(idx) >= len(x.next) {
		x.next = append(x.next, -1)
	}
	x.next[idx] = -1
	if prev, ok := x.head[h]; ok {
		x.next[idx] = prev
	}
	x.head[h] = idx
}

// execFreelist recycles execution-interval vectors: vectors rejected by
// dedup return here and back the next trigger's construction, and a
// Workspace returns every vector of its last report here when its next
// analysis starts. get hands out vectors of length n, dropping spares
// too small for it.
type execFreelist struct {
	n     int
	spare [][]sched.ExecBounds
}

func (f *execFreelist) get() []sched.ExecBounds {
	for k := len(f.spare); k > 0; k-- {
		buf := f.spare[k-1]
		f.spare = f.spare[:k-1]
		if cap(buf) >= f.n {
			return buf[:f.n]
		}
	}
	return make([]sched.ExecBounds, f.n)
}

func (f *execFreelist) put(buf []sched.ExecBounds) {
	f.spare = append(f.spare, buf)
}
