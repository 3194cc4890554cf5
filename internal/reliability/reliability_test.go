package reliability

import (
	"math"
	"testing"
	"testing/quick"

	"mcmap/internal/hardening"
	"mcmap/internal/model"
)

func TestExecFailureProb(t *testing.T) {
	if got := ExecFailureProb(0, 100); got != 0 {
		t.Errorf("zero lambda: %v", got)
	}
	if got := ExecFailureProb(1e-6, 0); got != 0 {
		t.Errorf("zero time: %v", got)
	}
	got := ExecFailureProb(1e-6, 1000)
	want := 1 - math.Exp(-1e-3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestExecFailureProbProperties(t *testing.T) {
	f := func(l float64, c int32) bool {
		lambda := math.Abs(l) / 1e6
		p := ExecFailureProb(lambda, model.Time(c))
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Monotone in exposure time.
	if !(ExecFailureProb(1e-6, 2000) > ExecFailureProb(1e-6, 1000)) {
		t.Error("failure probability not monotone in time")
	}
}

func TestMajorityFailureProb(t *testing.T) {
	// Single instance: identity.
	if got := majorityFailureProb([]float64{0.1}); got != 0.1 {
		t.Errorf("n=1: %v", got)
	}
	// Two replicas: detection only, any failure is unsafe.
	got := majorityFailureProb([]float64{0.1, 0.2})
	want := 1 - 0.9*0.8
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("n=2: got %v want %v", got, want)
	}
	// Three replicas: unsafe iff >= 2 fail.
	p := 0.1
	got = majorityFailureProb([]float64{p, p, p})
	want = 3*p*p*(1-p) + p*p*p
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("n=3: got %v want %v", got, want)
	}
	// TMR with small p beats a single unit.
	if !(got < p) {
		t.Error("TMR should beat simplex for small p")
	}
	// Empty: no failure.
	if majorityFailureProb(nil) != 0 {
		t.Error("empty replica set should be safe")
	}
}

// TestMajorityFailureProbManyReplicas checks vote failure above 20
// replicas against the exact binomial tail: more than floor((n-1)/2) of
// n identical replicas fail. Truncating the enumeration to 20 replicas
// under-estimates n = 25 at p = 0.3 about 14-fold (0.00128 against
// 0.0175), a non-conservative verdict.
func TestMajorityFailureProbManyReplicas(t *testing.T) {
	const p = 0.3
	for _, n := range []int{21, 25, 40} {
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = p
		}
		want, c := 0.0, 1.0 // c = C(n, j), exact in float64 for n <= 40
		for j := 0; j <= n; j++ {
			if j > (n-1)/2 {
				want += c * math.Pow(p, float64(j)) * math.Pow(1-p, float64(n-j))
			}
			c = c * float64(n-j) / float64(j+1)
		}
		if got := majorityFailureProb(probs); math.Abs(got-want) > 1e-12*want {
			t.Errorf("n=%d: got %v, binomial tail %v", n, got, want)
		}
	}
}

func TestMajorityFailureProbBounds(t *testing.T) {
	f := func(a, b, c uint8) bool {
		probs := []float64{float64(a) / 256, float64(b) / 256, float64(c) / 256}
		p := majorityFailureProb(probs)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func testSetup(t *testing.T, plan hardening.Plan) (*model.Architecture, *hardening.Manifest) {
	t.Helper()
	a := &model.Architecture{
		Name: "a",
		Procs: []model.Processor{
			{ID: 0, Name: "p0", FaultRate: 1e-6},
			{ID: 1, Name: "p1", FaultRate: 1e-6},
			{ID: 2, Name: "p2", FaultRate: 1e-6},
		},
	}
	g := model.NewTaskGraph("g", 100*model.Millisecond).SetCritical(1e-9)
	g.AddTask("v", 1*model.Millisecond, 10*model.Millisecond, 100, 200)
	man, err := hardening.Apply(model.NewAppSet(g), plan)
	if err != nil {
		t.Fatal(err)
	}
	return a, man
}

func fullMapping(man *hardening.Manifest) model.Mapping {
	m := model.Mapping{}
	p := 0
	for _, g := range man.Apps.Graphs {
		for _, task := range g.Tasks {
			m[task.ID] = model.ProcID(p % 3)
			p++
		}
	}
	return m
}

func TestAssessUnhardened(t *testing.T) {
	a, man := testSetup(t, hardening.Plan{})
	m := fullMapping(man)
	as, err := Assess(a, man, m)
	if err != nil {
		t.Fatal(err)
	}
	p := as.TaskUnsafe["g/v"]
	want := ExecFailureProb(1e-6, 10*model.Millisecond)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("unhardened prob = %v, want %v", p, want)
	}
	// 1e-6 * 10ms ~ 1e-2 failure/period; rate = 1e-2/1e5us = 1e-7 >> 1e-9.
	if as.OK() {
		t.Error("unhardened task should violate the 1e-9 constraint")
	}
	if len(as.Violations) != 1 || as.Violations[0] != "g" {
		t.Errorf("violations = %v", as.Violations)
	}
}

func TestAssessReExecution(t *testing.T) {
	a, man := testSetup(t, hardening.Plan{"g/v": {Technique: hardening.ReExecution, K: 2}})
	m := fullMapping(man)
	as, err := Assess(a, man, m)
	if err != nil {
		t.Fatal(err)
	}
	single := ExecFailureProb(1e-6, 10*model.Millisecond)
	want := math.Pow(single, 3)
	if math.Abs(as.TaskUnsafe["g/v"]-want) > 1e-15 {
		t.Errorf("re-exec prob = %v, want %v", as.TaskUnsafe["g/v"], want)
	}
	if !as.OK() {
		t.Errorf("k=2 re-execution should satisfy 1e-9: rate=%v", as.GraphFailureRate["g"])
	}
}

func TestAssessReplication(t *testing.T) {
	a, man := testSetup(t, hardening.Plan{"g/v": {Technique: hardening.ActiveReplication, Replicas: 3}})
	m := model.Mapping{}
	for i := 0; i < 3; i++ {
		m[hardening.ReplicaID("g/v", i)] = model.ProcID(i)
	}
	m[hardening.VoterID("g/v")] = 0
	as, err := Assess(a, man, m)
	if err != nil {
		t.Fatal(err)
	}
	p := ExecFailureProb(1e-6, 10*model.Millisecond)
	want := 3*p*p*(1-p) + p*p*p
	if math.Abs(as.TaskUnsafe["g/v"]-want) > 1e-12 {
		t.Errorf("TMR prob = %v, want %v", as.TaskUnsafe["g/v"], want)
	}
}

func TestAssessErrors(t *testing.T) {
	a, man := testSetup(t, hardening.Plan{})
	if _, err := Assess(a, man, model.Mapping{}); err == nil {
		t.Error("unmapped task accepted")
	}
	if _, err := Assess(a, man, model.Mapping{"g/v": 99}); err == nil {
		t.Error("unknown processor accepted")
	}
}

func TestRequiredReExecutions(t *testing.T) {
	lambda := 1e-6
	exposure := 10 * model.Millisecond
	p := ExecFailureProb(lambda, exposure) // ~1e-2
	// Budget p^2..p: k=1 suffices for budget slightly above p^2.
	k := RequiredReExecutions(lambda, exposure, p*p*1.01, 5)
	if k != 1 {
		t.Errorf("k = %d, want 1", k)
	}
	if got := RequiredReExecutions(lambda, exposure, 1.0, 5); got != 0 {
		t.Errorf("trivial budget needs k=0, got %d", got)
	}
	if got := RequiredReExecutions(lambda, exposure, 1e-300, 3); got != -1 {
		t.Errorf("impossible budget should give -1, got %d", got)
	}
}

func TestSpeedAffectsExposure(t *testing.T) {
	// A faster processor shortens exposure and thus failure probability.
	a, man := testSetup(t, hardening.Plan{})
	a.Procs[0].Speed = 4.0
	m := model.Mapping{"g/v": 0}
	fast, err := Assess(a, man, m)
	if err != nil {
		t.Fatal(err)
	}
	a.Procs[0].Speed = 1.0
	slow, err := Assess(a, man, m)
	if err != nil {
		t.Fatal(err)
	}
	if !(fast.TaskUnsafe["g/v"] < slow.TaskUnsafe["g/v"]) {
		t.Error("faster processor should reduce unsafe probability")
	}
}

// TestMajorityFailureProbRecurrence checks the failure-count recurrence
// majorityFailureProb uses above enumerateMax replicas against a direct
// enumeration of every failure pattern, with mixed per-replica
// probabilities, to a relative 1e-12.
func TestMajorityFailureProbRecurrence(t *testing.T) {
	enumerate := func(probs []float64) float64 {
		n, unsafe := len(probs), 0.0
		for mask := 0; mask < 1<<n; mask++ {
			fails, p := 0, 1.0
			for i, q := range probs {
				if mask&(1<<i) != 0 {
					fails++
					p *= q
				} else {
					p *= 1 - q
				}
			}
			if fails > (n-1)/2 {
				unsafe += p
			}
		}
		return unsafe
	}
	for n := enumerateMax + 1; n <= 16; n++ {
		probs := make([]float64, n)
		for i := range probs {
			// Spread over four decades, from 1e-4 up to about 0.5.
			probs[i] = math.Pow(10, -4+float64((i*7+n)%13)*0.3)
		}
		got, want := majorityFailureProb(probs), enumerate(probs)
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("n=%d: recurrence %v, enumeration %v", n, got, want)
		}
	}
}
