//go:build race

package main

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so the zero-allocation gates cannot hold under it.
const raceEnabled = true
