//go:build race

package dataflow

// The race detector instruments synchronization and shadow-memory paths
// that allocate even when the instrumented code does not, so heap
// readings under -race measure the detector, not the tables.
const raceEnabled = true
