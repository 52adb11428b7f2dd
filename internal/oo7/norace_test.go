//go:build !race

package oo7

const raceEnabled = false
