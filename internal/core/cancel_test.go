package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"mcmap/internal/benchmarks"
	"mcmap/internal/core"
	"mcmap/internal/platform"
	"mcmap/internal/sched"
)

func cancelFixture(t *testing.T) (*platform.System, core.DropSet) {
	t.Helper()
	b := benchmarks.Synth(benchmarks.SynthConfig{
		Name: "cancel", Procs: 6,
		CriticalApps: 3, DroppableApps: 3,
		MinTasks: 6, MaxTasks: 7,
		Seed: 11,
	})
	man, err := b.Hardened()
	if err != nil {
		t.Fatal(err)
	}
	mapping := b.SampleMapping(man, benchmarks.MapLoadBalance)
	sys, err := platform.Compile(b.Arch, man.Apps, mapping, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, b.DefaultDropSet()
}

// countingBackend counts backend invocations and runs onCall, when set,
// at the start of each one.
type countingBackend struct {
	inner  sched.Analyzer
	calls  int
	onCall func(call int)
}

func (c *countingBackend) Name() string { return "counting" }

func (c *countingBackend) Analyze(sys *platform.System, exec []sched.ExecBounds) (*sched.Result, error) {
	c.calls++
	if c.onCall != nil {
		c.onCall(c.calls)
	}
	return c.inner.Analyze(sys, exec)
}

// TestAnalyzeCancelled pins the cancellation contract of core.Analyze,
// which checks Config.Ctx before the fault-free pass and before each
// scenario: a done context surfaces ctx.Err() instead of a report, no
// backend call starts after the cancel, and a run that completes is the
// usual deterministic report.
func TestAnalyzeCancelled(t *testing.T) {
	sys, dropped := cancelFixture(t)
	cfg := core.NewConfig()
	cfg.Ctx = context.Background()

	// Sanity: a live context changes nothing.
	want, err := core.Analyze(sys, dropped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Analyze(sys, dropped, core.NewConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, plain) {
		t.Fatal("a live context changed the report")
	}
	if want.ScenariosAnalyzed < 3 {
		t.Fatalf("fixture too small: %d backend runs", want.ScenariosAnalyzed)
	}

	// A context cancelled before the call: no backend call happens.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cb := &countingBackend{inner: &sched.Holistic{}}
	cfg.Analyzer, cfg.Ctx = cb, ctx
	if _, err := core.Analyze(sys, dropped, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Analyze: got %v, want context.Canceled", err)
	}
	if cb.calls != 0 {
		t.Fatalf("pre-cancelled Analyze made %d backend calls", cb.calls)
	}

	// A cancel landing during backend call k: that call finishes, the
	// next scenario check sees the cancel, and no call k+1 starts.
	for k := 1; k < want.ScenariosAnalyzed; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		cb := &countingBackend{inner: &sched.Holistic{}, onCall: func(call int) {
			if call == k {
				cancel()
			}
		}}
		cfg.Analyzer, cfg.Ctx = cb, ctx
		if _, err := core.Analyze(sys, dropped, cfg); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel in call %d: got %v, want context.Canceled", k, err)
		}
		if cb.calls != k {
			t.Fatalf("cancel in call %d: %d backend calls made", k, cb.calls)
		}
		cancel()
	}

	// A cancel racing the run from another goroutine: ctx.Err(), or the
	// usual deterministic report if the run finished first.
	cfg.Analyzer = core.NewConfig().Analyzer
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Ctx = ctx
		timer := time.AfterFunc(time.Duration(i)*200*time.Microsecond, cancel)
		rep, err := core.Analyze(sys, dropped, cfg)
		switch {
		case err == nil:
			if !reflect.DeepEqual(rep, want) {
				t.Fatal("completed-despite-cancel report differs")
			}
		case !errors.Is(err, context.Canceled):
			t.Fatalf("cancelled Analyze returned unexpected error: %v", err)
		}
		timer.Stop()
		cancel()
	}
}
