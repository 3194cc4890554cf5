//go:build !race

// The race detector changes what allocates, so exact allocation counts
// hold only in normal builds.

package sched

import (
	"fmt"
	"testing"

	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// oneProcChains compiles a set of jobs chains chains of length long each
// on one processor: the chains make some higher-priority peers
// ancestors, so interference segments are strictly shorter than demand
// segments.
func oneProcChains(t *testing.T, chains, long int, nonPreemptive bool) *platform.System {
	t.Helper()
	g := model.NewTaskGraph("g", 1_000_000)
	m := model.Mapping{}
	for c := 0; c < chains; c++ {
		for k := 0; k < long; k++ {
			name := fmt.Sprintf("c%dt%d", c, k)
			g.AddTask(name, 1, 2, 0, 0)
			m["g/"+model.TaskID(name)] = 0
			if k > 0 {
				g.AddChannel(fmt.Sprintf("c%dt%d", c, k-1), name, 1)
			}
		}
	}
	a := arch(1)
	a.Procs[0].NonPreemptive = nonPreemptive
	return compile(t, a, model.NewAppSet(g), m)
}

// TestKernelBuildAllocations pins a cold kernel build to one allocation
// per non-empty array: the four offset tables, the interference, demand
// and reader segments, and on a non-preemptive processor the blocking
// segments. Growing a segment by append would allocate several times
// the array it keeps.
func TestKernelBuildAllocations(t *testing.T) {
	for _, np := range []bool{false, true} {
		sys := oneProcChains(t, 60, 5, np)
		want := 7.0
		if np {
			want = 8
		}
		got := testing.AllocsPerRun(5, func() {
			var k holisticKernel
			k.build(sys)
		})
		if got != want {
			t.Errorf("non-preemptive=%v: cold build of %d jobs allocates %.0f times, want %.0f", np, len(sys.Nodes), got, want)
		}
	}
}
