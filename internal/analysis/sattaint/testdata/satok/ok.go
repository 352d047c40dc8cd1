// Package satok is the sattaint clean fixture: the sanctioned shapes the
// analyzer must stay silent on.
package satok

import "imflow/internal/cost"

// window is constant arithmetic: the compiler rejects overflow at build
// time, so sattaint leaves it alone.
const window = cost.Micros(500) * 1000

// saturating goes through the cost helpers.
func saturating(d, x, c cost.Micros, k int64) cost.Micros {
	return cost.SatAdd(cost.SatAdd(d, x), cost.SatMul(cost.Micros(k), c))
}

// division cannot overflow int64 (validated times are non-negative, so
// Min / -1 never arises) and stays raw — it is the exact floor() the
// paper's capacity computation depends on.
func division(budget, c cost.Micros) int64 {
	if c <= 0 || budget < 0 {
		return 0
	}
	return int64(budget / c)
}

// comparisons and plain int64 arithmetic are out of scope.
func comparisons(a, b cost.Micros, blocks int64) bool {
	blocks++
	blocks = blocks * 2
	return a < b && blocks > 0
}
