// The deterministic-package side of the transdet golden: calls into the
// clock helpers from a package the rule protects.
package dse

import "tmod/internal/clock"

// Package-level initializers run in the package too.
var stamp = clock.Stamp() // want `call to clock.Stamp, which transitively reaches time.Now`

func useDirect() int64 {
	return clock.Stamp() // want `call to clock.Stamp, which transitively reaches time.Now`
}

func useIndirect() int64 {
	return clock.Indirect() // want `call to clock.Indirect, which transitively reaches time.Now \(clock.Indirect -> clock.Stamp -> time.Now\)`
}

func usePure() int {
	return clock.Pure(41)
}

// The waived root is deliberately invisible: no taint flows out of
// clock.Waived.
func useWaived() int64 {
	return clock.Waived()
}

// A frontier call site can itself be waived.
func useAllowed() int64 {
	//lint:allow transdet display-only timestamp, reviewed in the stats design
	return clock.Stamp()
}

// localHop is itself tainted through clock.Stamp, but intra-package
// calls inside the deterministic set are not frontier sites — the
// finding stays on the frontier call above.
func localHop() int64 {
	return useDirect()
}
