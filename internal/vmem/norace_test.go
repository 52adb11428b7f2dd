//go:build !race

package vmem

const raceEnabled = false
