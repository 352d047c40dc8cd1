// Package cost defines the integer time representation used throughout the
// retrieval library.
//
// The paper expresses every disk parameter in milliseconds with at most one
// decimal digit (Table III) and every network delay and initial load as an
// integral number of milliseconds (Table IV). Representing times as integer
// microseconds therefore loses nothing, and it makes the capacity
// computation floor((t-D-X)/C) an exact integer division: feasibility
// decisions can never flip due to floating-point rounding.
//
// The integer core (this package, flowgraph, maxflow and retrieval) is
// float-free except for the two declared conversion boundaries
// FromMillis and Micros.Millis; the oracle and property tests catch a
// float floor that reaches the capacity computation (DESIGN.md §7).
package cost

import (
	"fmt"
	"math"
	"time"
)

// Micros is a duration or instant measured in integer microseconds.
type Micros int64

// Max is the largest representable Micros, used as an "infinity" sentinel.
// All saturating arithmetic in this package clamps to it on positive
// overflow, so a completion time that does not fit the representation is
// reported as "never" rather than wrapping to a bogus feasible value.
const Max Micros = math.MaxInt64

// Min is the smallest representable Micros, the negative saturation point
// of SatSub. It only ever appears in intermediate budget computations;
// validated disk parameters and candidate times are non-negative.
const Min Micros = math.MinInt64

// FromMillis converts a (possibly fractional) millisecond quantity to
// Micros, rounding to the nearest microsecond. Values beyond the Micros
// range saturate at Max/Min, and NaN converts to zero (which validation
// downstream rejects wherever a positive quantity is required); the
// float-to-int conversion is therefore never applied to an out-of-range
// value, whose result Go leaves implementation-defined. It is one of the
// two declared float boundaries of the integer core.
func FromMillis(ms float64) Micros {
	us := math.Round(ms * 1000)
	if math.IsNaN(us) {
		return 0
	}
	if us >= float64(Max) { // 2^63-1 rounds up to 2^63 as a float64
		return Max
	}
	if us <= float64(Min) {
		return Min
	}
	return Micros(us)
}

// SatAdd returns a+b, saturating at Max/Min instead of wrapping.
func SatAdd(a, b Micros) Micros {
	s := a + b
	// Overflow iff both operands share a sign and the sum flipped it.
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		if a >= 0 {
			return Max
		}
		return Min
	}
	return s
}

// SatSub returns a-b, saturating at Max/Min instead of wrapping.
func SatSub(a, b Micros) Micros {
	if b == Min {
		// -Min is not representable: a - Min = a + (Max+1).
		if a >= 0 {
			return Max
		}
		return SatAdd(a+1, Max) // a+1 is safe: a < 0
	}
	return SatAdd(a, -b)
}

// SatMul returns a*b, saturating at Max/Min instead of wrapping.
func SatMul(a, b Micros) Micros {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || (a == -1 && b == Min) || (b == -1 && a == Min) {
		if (a > 0) == (b > 0) {
			return Max
		}
		return Min
	}
	return p
}

// Millis converts back to floating-point milliseconds for reporting. It
// is one of the two declared float boundaries of the integer core.
func (m Micros) Millis() float64 { return float64(m) / 1000 }

// String renders the value as milliseconds with microsecond precision.
// Formatting for humans goes through Millis, so String is a declared
// float boundary like the accessor it wraps.
func (m Micros) String() string {
	return fmt.Sprintf("%.3fms", m.Millis())
}

// Duration converts m to a time.Duration, saturating instead of
// wrapping. A Duration counts nanoseconds, so any Micros beyond
// ±(2^63-1)/1000 — in particular the Max "infinity" sentinel that
// saturating arithmetic produces — has no representable nanosecond
// count; a plain time.Duration(m)*time.Microsecond multiplication
// wraps it to an arbitrary (often negative) value, which turned the
// deadline comparison it was written for inside out.
func (m Micros) Duration() time.Duration {
	if m > Max/1000 {
		return time.Duration(math.MaxInt64)
	}
	if m < Min/1000 {
		return time.Duration(math.MinInt64)
	}
	return time.Duration(m) * time.Microsecond
}

// DiskFinish returns the completion time of a disk with network delay d,
// initial load x and per-block service time c retrieving k blocks:
// d + x + k*c, saturating at Max instead of wrapping (a schedule that
// does not finish within the representable horizon must compare as
// "later than everything", never as a small wrapped value). k must be
// non-negative.
func DiskFinish(d, x, c Micros, k int64) Micros {
	if k < 0 {
		panic("cost: negative block count")
	}
	return SatAdd(SatAdd(d, x), SatMul(Micros(k), c))
}

// BlocksWithin returns the largest k >= 0 such that d + x + k*c <= t, i.e.
// the disk-to-sink edge capacity for candidate response time t. The result
// is clamped to [0, limit]; pass limit < 0 for no clamp.
//
// The budget t - (d+x) is computed with saturating subtraction and the
// negative case is clamped to capacity 0 explicitly: Go's integer division
// truncates toward zero, so a wrapped or negative numerator must never
// reach the division (floor(-1/c) would otherwise "round up" to 0 blocks
// for the wrong reason, and a wrapped positive numerator would fabricate
// capacity).
func BlocksWithin(d, x, c Micros, t Micros, limit int64) int64 {
	if c <= 0 {
		panic("cost: non-positive service time")
	}
	budget := SatSub(SatSub(t, d), x)
	if budget < 0 {
		return 0
	}
	k := int64(budget / c)
	if limit >= 0 && k > limit {
		k = limit
	}
	return k
}
