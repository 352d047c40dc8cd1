// Package sattaint is the want-fixture for the flow-sensitive half of
// sattaint: Micros values laundered into plain int64-underlying types.
package sattaint

import (
	"time"

	"imflow/internal/cost"
)

type stats struct {
	total int64 // tainted via record()
	count int64
}

// record launders a Micros into the stats total.
func record(s *stats, m cost.Micros) {
	s.total += int64(m) // want "raw \+= on a cost.Micros-derived value can wrap"
	s.count++           // count is never Micros-derived: no finding
}

// launder returns a Micros-derived int64; callers' arithmetic on it is
// flagged through the result summary.
func launder(m cost.Micros) int64 {
	return int64(m)
}

func flows(m cost.Micros, plain int64) {
	d := int64(m)
	sum := d + plain // want "raw \+ on a cost.Micros-derived value can wrap"
	_ = sum

	// A Micros-typed operand is reported once, with the Micros message.
	var mm cost.Micros = m + 1 // want "raw \+ on cost.Micros can wrap; use cost.SatAdd"
	_ = mm

	// Named int64-underlying types carry the taint.
	dur := time.Duration(m)
	dur *= 2 // want "raw \*= on a cost.Micros-derived value can wrap"

	// Division and comparisons cannot wrap: exempt.
	half := d / 2
	_ = half
	if d > plain {
		_ = d
	}

	// Constant expressions are the compiler's problem.
	const k = int64(cost.Max) / 4
	_ = k + k

	// Result summaries taint call sites.
	viaCall := launder(m) - 5 // want "raw - on a cost.Micros-derived value can wrap"
	_ = viaCall

	// Struct-field taint flows out of record's writes.
	var s stats
	record(&s, m)
	s.total++ // want "raw \+\+ on a cost.Micros-derived value can wrap"
	s.count-- // untainted field: no finding

	// Untainted arithmetic stays silent.
	plain2 := plain * 3
	_ = plain2
}
