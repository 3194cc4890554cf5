package sched

import (
	"reflect"
	"testing"

	"mcmap/internal/model"
	"mcmap/internal/platform"
)

// TestKernelCacheRebuiltSystem: the pooled scratch caches its kernel
// per *System, and a platform.Builder rebuilds systems in recycled
// memory. Two designs of one application set with the same node count
// but different placements, built one after the other by one Builder,
// must analyze exactly as the same designs built fresh — through
// Holistic.Analyze and through one session reset between them. Were
// Build to hand out its previous header, the second analysis would read
// the first design's cached peer segments.
func TestKernelCacheRebuiltSystem(t *testing.T) {
	g := model.NewTaskGraph("g", 100).SetCritical(1e-9)
	g.AddTask("a", 2, 6, 0, 0)
	g.AddTask("b", 3, 7, 0, 0)
	g.AddTask("c", 1, 5, 0, 0)
	g.AddTask("d", 2, 4, 0, 0)
	g.AddChannel("a", "b", 4)
	h := model.NewTaskGraph("h", 50)
	h.AddTask("x", 1, 9, 0, 0)
	h.AddTask("y", 1, 8, 0, 0)
	apps := model.NewAppSet(g, h)
	a := arch(2)
	links := func(gr *model.TaskGraph) []model.Link {
		l, err := model.Links(gr)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	designs := [][]platform.MappedGraph{
		{{Links: links(g), Procs: []int{0, 0, 0, 0}}, {Links: links(h), Procs: []int{0, 0}}},
		{{Links: links(g), Procs: []int{0, 1, 1, 0}}, {Links: links(h), Procs: []int{1, 0}}},
	}
	var fresh []*Result
	for _, d := range designs {
		sys, err := platform.Build(a, apps, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, analyze(t, sys))
	}
	if reflect.DeepEqual(fresh[0].Bounds, fresh[1].Bounds) {
		t.Fatal("fixture designs analyze alike, so a stale kernel would go unnoticed")
	}

	var b platform.Builder
	h0 := &Holistic{}
	var se *Session
	for i, d := range designs {
		sys, err := b.Build(a, apps, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The session pins one scratch first, so the pool scratch that
		// Holistic.Analyze caches the first design's kernel in is the
		// one it draws again for the second.
		if se == nil {
			se = h0.OpenSession(sys)
			defer se.Close()
		} else {
			se.Reset(sys)
		}
		pinned, err := se.Analyze(NominalExec(sys))
		if err != nil {
			t.Fatal(err)
		}
		got := analyze(t, sys)
		for _, r := range []struct {
			how string
			res *Result
		}{{"Holistic.Analyze", got}, {"session", pinned}} {
			if !reflect.DeepEqual(r.res, fresh[i]) {
				t.Fatalf("design %d via %s on a rebuilt System: %+v, fresh System %+v", i, r.how, r.res.Bounds, fresh[i].Bounds)
			}
		}
	}
}
