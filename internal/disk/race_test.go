//go:build race

package disk

// raceEnabled: the race detector allocates on its own account, so allocation
// counts mean nothing under it.
const raceEnabled = true
