// Package threads holds the one thread-count clamping rule shared by
// every parallel entry point in the module: the parallel push-relabel
// engine factory and the serve layer's shard count. Centralizing the
// rule keeps "0 means GOMAXPROCS" consistent everywhere a knob accepts a
// thread count.
package threads

import "runtime"

// Normalize clamps a requested thread count: values <= 0 select the
// runtime's current GOMAXPROCS (the "use the machine" default), anything
// positive passes through unchanged.
func Normalize(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}
