package model

import (
	"fmt"
	"math"
)

// Time is the base time unit of the library: one microsecond, stored as a
// signed 64-bit integer. All schedulability arithmetic is performed on
// integers so that bounds are exact and rounding is always explicit.
type Time int64

// Convenient time-unit constants.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Infinity is a sentinel used by analyses to denote an unbounded response
// time (e.g. a diverging busy window). It is far larger than any physical
// time handled by the library but small enough that modest additions to it
// do not overflow int64.
const Infinity Time = 1 << 60

// IsInfinite reports whether t is at or beyond the Infinity sentinel.
func (t Time) IsInfinite() bool { return t >= Infinity }

// Milliseconds returns the time as a floating-point number of milliseconds,
// which is the unit the paper's tables use.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the time in engineering units (us, ms or s).
// math.MinInt64 has no positive counterpart, so it prints as raw
// microseconds.
func (t Time) String() string {
	switch {
	case t.IsInfinite():
		return "inf"
	case t == math.MinInt64:
		return fmt.Sprintf("%dus", int64(t))
	case t < 0:
		return "-" + (-t).String()
	case t < Millisecond:
		return fmt.Sprintf("%dus", int64(t))
	case t < Second:
		if t%Millisecond == 0 {
			return fmt.Sprintf("%dms", int64(t/Millisecond))
		}
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	default:
		if t%Second == 0 {
			return fmt.Sprintf("%ds", int64(t/Second))
		}
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// CeilDiv returns ceil(a/b) for non-negative a and positive b. It is the
// conservative rounding used whenever a worst-case quantity is divided.
func CeilDiv(a, b Time) Time {
	if b <= 0 {
		panic("model: CeilDiv by non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// MaxTime returns the larger of a and b.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the smaller of a and b.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// SatAdd adds two times, saturating at Infinity instead of overflowing.
func SatAdd(a, b Time) Time {
	if a.IsInfinite() || b.IsInfinite() {
		return Infinity
	}
	s := a + b
	if s >= Infinity {
		return Infinity
	}
	return s
}

// gcd returns the greatest common divisor of two positive times.
func gcd(a, b Time) Time {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b, or an error when the
// result would exceed the Infinity sentinel.
func LCM(a, b Time) (Time, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("model: LCM of non-positive times %d, %d", a, b)
	}
	g := gcd(a, b)
	q := a / g
	if q > Infinity/b {
		return 0, fmt.Errorf("model: LCM overflow for %d, %d", a, b)
	}
	return q * b, nil
}
