package main

import (
	"crypto/sha256"
	"time"
)

// probeIters is the host probe's fixed amount of work, about 80 ms on a
// 2-core cloud VM.
const probeIters = 20_000

// hostProbe times a fixed CPU kernel that belongs to the benchmark, not
// the program: SHA-256 over a 4 KiB buffer, probeIters times. It returns
// iterations per millisecond. Run before and after a run, it tells a run
// set taken on a drifting host apart from a regression.
func hostProbe() float64 {
	var buf [4096]byte
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		sum := sha256.Sum256(buf[:])
		buf[0] = sum[0] // chain the iterations so none can be skipped
	}
	return probeIters / ms(time.Since(start))
}
