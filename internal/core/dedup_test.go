package core

import (
	"testing"

	"mcmap/internal/model"
	"mcmap/internal/sched"
)

func execVec(vals ...int64) []sched.ExecBounds {
	v := make([]sched.ExecBounds, len(vals)/2)
	for i := range v {
		v[i] = sched.ExecBounds{B: model.Time(vals[2*i]), W: model.Time(vals[2*i+1])}
	}
	return v
}

func TestHashExecDiscriminates(t *testing.T) {
	a := execVec(1, 2, 3, 4)
	b := execVec(1, 2, 3, 5)
	c := execVec(1, 2, 4, 3) // same multiset, different positions/roles
	if hashExec(a) != hashExec(a) {
		t.Fatal("hash not deterministic")
	}
	if hashExec(a) == hashExec(b) || hashExec(a) == hashExec(c) {
		t.Fatal("distinct vectors collide on trivial inputs")
	}
}

func TestExecIndexExactUnderForcedCollision(t *testing.T) {
	a := execVec(1, 2, 3, 4)
	b := execVec(5, 6, 7, 8)
	vecs := [][]sched.ExecBounds{a, b}
	x := newExecIndex(2)
	h := hashExec(a)
	// Insert both under the SAME fingerprint: lookup must still tell
	// them apart via the stored-vector confirmation.
	x.insert(h, 0)
	x.insert(h, 1)
	vecOf := func(i int32) []sched.ExecBounds { return vecs[i] }
	if !x.lookup(h, a, vecOf) || !x.lookup(h, b, vecOf) {
		t.Fatal("indexed vectors not found")
	}
	if x.lookup(h, execVec(9, 9, 9, 9), vecOf) {
		t.Fatal("foreign vector matched under collision")
	}
}

// TestDedupProbeAllocations is the allocation regression test for the
// tentpole: fingerprinting a scenario vector and probing the index for a
// duplicate must not allocate. (The string-key implementation this
// replaced allocated a 16·|V|-byte key per probe.)
func TestDedupProbeAllocations(t *testing.T) {
	n := 64
	vals := make([]int64, 2*n)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	dup := execVec(vals...)
	x := newExecIndex(4)
	x.insert(hashExec(dup), 0)
	vecOf := func(int32) []sched.ExecBounds { return dup }
	probe := execVec(vals...)
	allocs := testing.AllocsPerRun(100, func() {
		h := hashExec(probe)
		if !x.lookup(h, probe, vecOf) {
			t.Fatal("duplicate not found")
		}
	})
	if allocs != 0 {
		t.Fatalf("dedup probe allocates %.1f objects/op, want 0", allocs)
	}
}

// TestExecFreelistRecycles: vectors returned to the freelist must back
// subsequent gets instead of fresh allocations.
func TestExecFreelistRecycles(t *testing.T) {
	f := execFreelist{n: 8}
	v := f.get()
	if len(v) != 8 {
		t.Fatalf("len = %d, want 8", len(v))
	}
	f.put(v)
	w := f.get()
	if &w[0] != &v[0] {
		t.Fatal("freelist did not recycle the returned vector")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf := f.get()
		f.put(buf)
	})
	if allocs != 0 {
		t.Fatalf("get/put cycle allocates %.1f objects/op, want 0", allocs)
	}
}
