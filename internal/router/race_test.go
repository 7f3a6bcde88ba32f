//go:build race

package router

// raceEnabled reports a -race build, whose instrumentation moves values to
// the heap that a plain build keeps on the stack.
const raceEnabled = true
