// Package suppressfix exercises the driver's suppression grammar: the
// standalone and end-of-line forms, the reasonless (malformed) form, and
// a finding with no suppression at all. driver_test.go asserts the exact
// active/suppressed split this file produces.
package suppressfix

import "imflow/internal/cost"

// standalone is silenced by a comment on the line above.
func standalone(a, b cost.Micros) cost.Micros {
	//lint:ignore sattaint fixture: standalone suppression form
	return a + b
}

// inline is silenced by a comment on the same line.
func inline(a, b cost.Micros) cost.Micros {
	return a - b //lint:ignore sattaint fixture: end-of-line suppression form
}

// reasonless omits the mandatory reason: the finding below stays active
// and the comment itself becomes a second, malformed-suppression finding.
func reasonless(a, b cost.Micros) cost.Micros {
	//lint:ignore sattaint
	return a * b
}

// naked has no suppression anywhere.
func naked(a, b cost.Micros) cost.Micros {
	return a + b
}

// typod names an analyzer that is not in the roster: the comment
// silences nothing (the finding below stays active) and is itself a
// malformed-suppression finding.
func typod(a, b cost.Micros) cost.Micros {
	//lint:ignore sattaint-typo fixture: unknown analyzer name
	return a + b
}
