// Package simclock exercises the simclock analyzer: wall-clock reads,
// the global math/rand stream and crypto/rand are flagged; seeded sources and pure
// time arithmetic are not.
package simclock

import (
	crand "crypto/rand"
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

// wallClock reads and waits on the host clock.
func wallClock() time.Duration {
	start := time.Now()          // want "reads the host clock"
	time.Sleep(time.Millisecond) // want "reads the host clock"
	return time.Since(start)     // want "reads the host clock"
}

// sleepOnly is a second banned call site on its own line.
func sleepOnly() {
	time.Sleep(time.Second) // want "reads the host clock"
}

// globalRand draws from the process-global stream.
func globalRand() int {
	return rand.Intn(10) // want "breaks fixed-seed reproducibility"
}

// globalRandV2 is just as bad in math/rand/v2.
func globalRandV2() float64 {
	return randv2.Float64() // want "breaks fixed-seed reproducibility"
}

// osEntropy reads the operating system's entropy pool, which no seed
// reproduces.
func osEntropy(b []byte) {
	_, _ = crand.Read(b) // want "breaks fixed-seed reproducibility"
}

// seeded constructs an explicit source: every draw is reproducible.
func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// zipf builds a derived distribution from a seeded source.
func zipf(rng *rand.Rand) uint64 {
	z := rand.NewZipf(rng, 1.1, 1, 100)
	return z.Uint64()
}

// arithmetic uses package time for pure duration math only.
func arithmetic(d time.Duration) float64 {
	return d.Seconds() + time.Unix(0, 0).Sub(time.Unix(0, 0)).Seconds()
}

// annotated is a justified wall-clock read.
func annotated() time.Time {
	//vhlint:allow simclock -- test fixture: operator-facing progress stamp, not simulation state
	return time.Now()
}

// staleAnnotation suppresses nothing and is reported.
func staleAnnotation(rng *rand.Rand) int {
	//vhlint:allow simclock -- test fixture: seeded draw needs no allow // want "stale //vhlint:allow simclock"
	return rng.Intn(3)
}
