//go:build race

package ipsa

// raceEnabled lets allocation-exactness and within-run ratio tests skip
// under the race detector, whose instrumentation allocates on the
// measured path and slows the tiers unequally.
const raceEnabled = true
