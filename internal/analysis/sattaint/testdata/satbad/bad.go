// Package satbad is the sattaint fixture for cost.Micros-typed operands:
// every raw wrapping operator shape on cost.Micros the analyzer must
// report.
package satbad

import "imflow/internal/cost"

// finish exercises the binary operator prong.
func finish(d, x, c cost.Micros, k int64) cost.Micros {
	sum := d + x                 // want "raw \+ on cost.Micros can wrap; use cost.SatAdd"
	span := sum - c              // want "raw - on cost.Micros can wrap; use cost.SatSub"
	return span * cost.Micros(k) // want "raw \* on cost.Micros can wrap; use cost.SatMul"
}

// accumulate exercises compound assignment and inc/dec statements.
func accumulate(ticks []cost.Micros) cost.Micros {
	var total cost.Micros
	for _, t := range ticks {
		total += t // want "raw \+= on cost.Micros can wrap; use cost.SatAdd"
	}
	total -= 1 // want "raw -= on cost.Micros can wrap; use cost.SatSub"
	total *= 2 // want "raw \*= on cost.Micros can wrap; use cost.SatMul"
	total++    // want "raw \+\+ on cost.Micros can wrap; use cost.SatAdd"
	total--    // want "raw -- on cost.Micros can wrap; use cost.SatSub"
	return total
}

// mixed proves one Micros operand is enough to flag the expression.
func mixed(t cost.Micros) cost.Micros {
	return t + cost.Micros(1) // want "raw \+ on cost.Micros can wrap; use cost.SatAdd"
}
