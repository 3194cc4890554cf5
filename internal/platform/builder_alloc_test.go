//go:build !race

// The race detector changes what allocates, so exact allocation counts
// hold only in normal builds.

package platform_test

import (
	"testing"

	"mcmap/internal/benchmarks"
	"mcmap/internal/platform"
)

// TestBuilderAllocations pins a steady-state Builder.Build of DT-large's
// reference design (the load-balanced sample mapping) exactly: the
// fresh System header and the permutation the priority policy returns.
// Everything else lives in the Builder's recycled arrays.
func TestBuilderAllocations(t *testing.T) {
	b, err := benchmarks.ByName("dt-large")
	if err != nil {
		t.Fatal(err)
	}
	man, err := b.Hardened()
	if err != nil {
		t.Fatal(err)
	}
	graphs := lower(t, b.Arch, man.Apps, b.SampleMapping(man, benchmarks.MapLoadBalance))
	var bld platform.Builder
	avg := testing.AllocsPerRun(50, func() {
		if _, err := bld.Build(b.Arch, man.Apps, graphs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 2 {
		t.Errorf("steady-state Builder.Build(dt-large reference design) allocates %.0f times, want 2", avg)
	}
}
