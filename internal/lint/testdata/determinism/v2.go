package determinism

// An unaliased math/rand/v2 import is named rand, not v2.
import "math/rand/v2"

func init() {
	_ = rand.N(10) // want `rand\.N draws from the global`
}

func v2GlobalRand() int {
	return rand.IntN(10) // want `rand\.IntN draws from the global`
}
