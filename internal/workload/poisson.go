package workload

import (
	"math"
	"math/rand"
	"time"
)

// Poisson draws a Poisson(lambda) variate. Small means use Knuth's
// product-of-uniforms method; large means (lambda >= 30) use the normal
// approximation with continuity correction, which is exact enough for the
// simulator (relative error < 1% on the tails we care about) and O(1).
func Poisson(rng *rand.Rand, lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		// Knuth: multiply uniforms until the product drops below e^-lambda.
		limit := math.Exp(-lambda)
		n := 0
		prod := rng.Float64()
		for prod > limit {
			n++
			prod *= rng.Float64()
		}
		return n
	default:
		x := rng.NormFloat64()*math.Sqrt(lambda) + lambda + 0.5
		if x < 0 {
			return 0
		}
		return int(x)
	}
}

// Interarrival draws the exponential gap to the next arrival of a
// Poisson process with the given rate (events per second) — the
// open-loop driver's clock. Non-positive rates yield a long pause (one
// second) rather than blocking forever, so a profile that dips to zero
// keeps polling for its next ramp.
func Interarrival(rng *rand.Rand, rate float64) time.Duration {
	if rate <= 0 {
		return time.Second
	}
	u := rng.Float64()
	for u == 0 { // -log(0) = +Inf
		u = rng.Float64()
	}
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}
