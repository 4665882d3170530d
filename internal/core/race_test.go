//go:build race

package core

// The race detector allocates shadow state of its own, so heap readings
// under -race measure the detector, not the compiler.
const raceEnabled = true
