package sched

import (
	"testing"

	"mcmap/internal/model"
)

func TestResultAccessors(t *testing.T) {
	g := model.NewTaskGraph("g", 100).SetCritical(1e-9)
	g.AddTask("a", 3, 7, 0, 0)
	sys := compile(t, arch(1), model.NewAppSet(g), model.Mapping{"g/a": 0})
	res := analyze(t, sys)
	if res.MaxFinishOf(sys.Node("g/a").ID) != 7 {
		t.Error("MaxFinishOf wrong")
	}
	if res.Iterations <= 0 {
		t.Error("iterations not recorded")
	}
	if (&Holistic{}).Name() == "" || (&Coarse{}).Name() == "" {
		t.Error("names empty")
	}
}

func TestCloneExec(t *testing.T) {
	g := model.NewTaskGraph("g", 100).SetCritical(1e-9)
	g.AddTask("a", 3, 7, 0, 0)
	sys := compile(t, arch(1), model.NewAppSet(g), model.Mapping{"g/a": 0})
	exec := NominalExec(sys)
	c := CloneExec(exec)
	c[0].W = 99
	if exec[0].W == 99 {
		t.Error("CloneExec aliases storage")
	}
}
