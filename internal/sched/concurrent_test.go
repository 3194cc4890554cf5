package sched

import (
	"reflect"
	"sync"
	"testing"

	"mcmap/internal/model"
)

// TestHolisticConcurrentAnalyze hammers one shared Holistic instance from
// many goroutines (as the DSE's candidate fan-out does) and checks
// every call still produces the sequential result. Run with -race to
// validate the pooled-scratch design.
func TestHolisticConcurrentAnalyze(t *testing.T) {
	hi := model.NewTaskGraph("hi", 20).SetCritical(1e-9)
	hi.AddTask("h", 1, 2, 0, 0)
	lo := model.NewTaskGraph("lo", 100).SetCritical(1e-9)
	lo.AddTask("a", 2, 4, 0, 0)
	lo.AddTask("b", 3, 5, 0, 0)
	lo.AddChannel("a", "b", 10)
	sys := compile(t, arch(2), model.NewAppSet(hi, lo),
		model.Mapping{"hi/h": 0, "lo/a": 0, "lo/b": 1})

	h := &Holistic{}
	exec := NominalExec(sys)
	want, err := h.Analyze(sys, exec)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := h.Analyze(sys, exec)
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d round %d: concurrent result diverged", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestHolisticScratchReuseSharedBus guards against stale pooled state
// leaking between calls on arbitrated fabrics: re-analyzing after a
// different-shaped system must match the scratch-free reference exactly.
func TestHolisticScratchReuseSharedBus(t *testing.T) {
	g1 := model.NewTaskGraph("g1", 1000).SetCritical(1e-9)
	g1.AddTask("a", 2, 4, 0, 0)
	g1.AddTask("b", 3, 5, 0, 0)
	g1.AddChannel("a", "b", 10)
	a1 := arch(2)
	a1.Fabric.Shared = true
	sysBus := compile(t, a1, model.NewAppSet(g1), model.Mapping{"g1/a": 0, "g1/b": 1})

	g2 := model.NewTaskGraph("g2", 50).SetCritical(1e-9)
	g2.AddTask("x", 1, 2, 0, 0)
	sysSmall := compile(t, arch(1), model.NewAppSet(g2), model.Mapping{"g2/x": 0})

	shared := &Holistic{}
	// Alternate between the two systems so each call inherits scratch
	// sized and populated by the other.
	for i := 0; i < 3; i++ {
		for _, tc := range []struct {
			name string
			run  func() (*Result, error)
			want func() (*Result, error)
		}{
			{"bus", func() (*Result, error) { return shared.Analyze(sysBus, NominalExec(sysBus)) },
				func() (*Result, error) { return Reference{}.Analyze(sysBus, NominalExec(sysBus)) }},
			{"small", func() (*Result, error) { return shared.Analyze(sysSmall, NominalExec(sysSmall)) },
				func() (*Result, error) { return Reference{}.Analyze(sysSmall, NominalExec(sysSmall)) }},
		} {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.want()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %s: pooled-scratch result differs from the reference", i, tc.name)
			}
		}
	}
}
