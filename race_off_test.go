//go:build !race

package ipsa

const raceEnabled = false
