//go:build !race

package recbuf

const raceEnabled = false
