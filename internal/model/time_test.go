package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0us"},
		{999, "999us"},
		{Millisecond, "1ms"},
		{1500, "1.500ms"},
		{250 * Millisecond, "250ms"},
		{Second, "1s"},
		{1500 * Millisecond, "1.500s"},
		{-2 * Millisecond, "-2ms"},
		{math.MinInt64, "-9223372036854775808us"},
		{math.MinInt64 + 1, "-inf"},
		{Infinity, "inf"},
		{Infinity + 5, "inf"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestMilliseconds(t *testing.T) {
	if got := (1500 * Microsecond).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 5, 0},
		{1, 5, 1},
		{5, 5, 1},
		{6, 5, 2},
		{10, 5, 2},
		{-3, 5, 0},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnNonPositiveDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero divisor")
		}
	}()
	CeilDiv(1, 0)
}

func TestCeilDivProperty(t *testing.T) {
	// ceil(a/b)*b >= a and (ceil(a/b)-1)*b < a for positive a, b.
	f := func(a, b int32) bool {
		aa := Time(a)
		bb := Time(b)
		if aa <= 0 || bb <= 0 {
			return true
		}
		q := CeilDiv(aa, bb)
		return q*bb >= aa && (q-1)*bb < aa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLCM(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{1, 1, 1},
		{2, 3, 6},
		{4, 6, 12},
		{100, 100, 100},
		{50, 75, 150},
	}
	for _, c := range cases {
		got, err := LCM(c.a, c.b)
		if err != nil {
			t.Fatalf("LCM(%d,%d): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("LCM(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLCMErrors(t *testing.T) {
	if _, err := LCM(0, 5); err == nil {
		t.Error("LCM(0,5) should fail")
	}
	if _, err := LCM(5, -1); err == nil {
		t.Error("LCM(5,-1) should fail")
	}
	if _, err := LCM(Infinity/2, Infinity/2-1); err == nil {
		t.Error("LCM overflow should fail")
	}
}

func TestLCMProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		aa, bb := Time(a)+1, Time(b)+1
		l, err := LCM(aa, bb)
		if err != nil {
			return false
		}
		return l%aa == 0 && l%bb == 0 && l >= aa && l >= bb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSatAdd(t *testing.T) {
	if got := SatAdd(1, 2); got != 3 {
		t.Errorf("SatAdd(1,2) = %d", got)
	}
	if got := SatAdd(Infinity, 1); !got.IsInfinite() {
		t.Errorf("SatAdd(inf,1) = %d, want inf", got)
	}
	if got := SatAdd(Infinity-1, Infinity-1); !got.IsInfinite() {
		t.Errorf("near-overflow SatAdd should saturate, got %d", got)
	}
}

func TestMinMaxTime(t *testing.T) {
	if MaxTime(3, 7) != 7 || MaxTime(7, 3) != 7 {
		t.Error("MaxTime wrong")
	}
	if MinTime(3, 7) != 3 || MinTime(7, 3) != 3 {
		t.Error("MinTime wrong")
	}
}
