package main

import (
	"time"
)

// The shared host's speed drifts by 20–30% over minutes (README.md,
// "Measured noise"), and that drift, not the program, sets most of the
// spread of a raw timing across runs. So each run also times a fixed
// kernel that belongs to the benchmark, not to the program, in quiet gaps
// between the parts of its measured loop and after each set-up, and
// scales its timings by calibRefMS over the kernel's median: a timing
// reads as it would on a host where the kernel takes calibRefMS. A
// change to the program moves the timing and not the kernel, so it shows
// in full; a host that is slower for the whole run moves both alike.
const (
	// calibRefMS is the kernel's median time on the reference host, the
	// 2-CPU machine README.md gives the measurements of.
	calibRefMS = 1.5
	// calibReps is how many times one burst runs the kernel.
	calibReps = 16
	// chunk is how long the measured loop runs between two bursts.
	chunk = time.Second
)

// calibTable is the kernel's working set: 512 KiB, which stays in a
// core's L2 cache, as the program's hot data does.
var calibTable = make([]uint64, 1<<16)

// calibKernel runs a fixed mix of integer arithmetic, branches and
// dependent loads and stores over calibTable, allocating nothing, and
// returns its time in ms.
func calibKernel() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	tb := calibTable
	for i := 0; i < 100_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x >> 48
		tb[j] += x
		if x&1 == 0 {
			x += tb[(j*7)&0xffff]
		} else {
			x -= tb[(j*13)&0xffff]
		}
	}
	calibTable[0] = x // keep the result, so the loop is not removed
	return float64(time.Since(t)) / 1e6
}

// hostClock collects one run's kernel times.
type hostClock struct{ ms []float64 }

// burst times the kernel calibReps times.
func (h *hostClock) burst() {
	for i := 0; i < calibReps; i++ {
		h.ms = append(h.ms, calibKernel())
	}
}

// kernelMS is the median kernel time of the run.
func (h *hostClock) kernelMS() float64 { return median(append([]float64(nil), h.ms...)) }

// scale is the factor that turns this run's timings into the reference
// host's.
func (h *hostClock) scale() float64 { return calibRefMS / h.kernelMS() }
