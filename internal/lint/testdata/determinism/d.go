// Package determinism is golden-test input for transdet's direct roots
// (witness chains of length 0). It only needs to parse; it is never
// compiled.
package determinism

import (
	"math/rand"
	r2 "math/rand/v2"
	"os"
	"time"
)

var t0 = time.Now() // want `time\.Now`

// A package may declare several init functions (v2.go has another).
func init() {
	_ = time.Now() // want `time\.Now`
}

func wallClock() int64 {
	t := time.Now()   // want `time\.Now`
	_ = time.Since(t) // want `time\.Since`
	return 0
}

func globalRand() int {
	n := rand.Intn(10)                 // want `rand\.Intn draws from the global`
	rand.Shuffle(n, func(i, j int) {}) // want `rand\.Shuffle draws from the global`
	_ = r2.Int64()                     // want `rand\.Int64 draws from the global`
	return n
}

func seededRandIsFine(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	pcg := r2.New(r2.NewPCG(uint64(seed), 0))
	cha := r2.New(r2.NewChaCha8([32]byte{}))
	return rng.Intn(10) + pcg.IntN(10) + cha.IntN(10)
}

func envBranch() string {
	if v := os.Getenv("MCMAP_DEBUG"); v != "" { // want `os\.Getenv`
		return v
	}
	if _, ok := os.LookupEnv("HOME"); ok { // want `os\.LookupEnv`
		return "home"
	}
	return ""
}

func allowedWallClock() int64 {
	// The profiling path genuinely needs wall time and never feeds a
	// Report.
	return int64(time.Since(time.Unix(0, 0))) //lint:allow determinism profiling wall time never reaches a Report
}

func otherOSCallsAreFine() error {
	_, err := os.ReadFile("spec.json")
	return err
}
