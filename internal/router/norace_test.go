//go:build !race

package router

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
