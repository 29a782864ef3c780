package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile that still has at
// least ten samples beyond it, and its value by the nearest-rank rule.
// ok is false with fewer than eleven samples, where no such percentile
// exists.
func tailPercentile(xs []float64) (pct int, v float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	pct = int(math.Floor(100 * float64(n-10) / float64(n)))
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(float64(pct) / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return pct, s[rank-1], true
}

// describe formats a timing series as its median, its tail percentile and
// the sample count.
func describe(xs []float64, unit string) string {
	out := fmt.Sprintf("median %.4g %s", median(xs), unit)
	if pct, v, ok := tailPercentile(xs); ok {
		out += fmt.Sprintf(", p%d %.4g %s", pct, v, unit)
	} else {
		out += ", no tail percentile (<11 samples)"
	}
	return out + fmt.Sprintf(", n=%d", len(xs))
}

// heapAllocBytes is the process-wide cumulative count of heap bytes
// allocated, read without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcSnapshot is the garbage collector's cumulative state.  Reading it
// stops the world, so it is taken only outside timed regions.
type gcSnapshot struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnapshot{cycles: ms.NumGC, pause: time.Duration(ms.PauseTotalNs)}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
