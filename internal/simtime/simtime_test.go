package simtime

import (
	"testing"
	"time"
)

func TestInstantArithmetic(t *testing.T) {
	var zero Instant
	one := zero.Add(time.Second)
	if got := one.Sub(zero); got != time.Second {
		t.Fatalf("Sub = %v, want 1s", got)
	}
	if !zero.Before(one) || !one.After(zero) {
		t.Fatalf("ordering broken: zero=%v one=%v", zero, one)
	}
	if one.String() != "1s" {
		t.Fatalf("String = %q, want 1s", one.String())
	}
}

func TestClockIndices(t *testing.T) {
	c := NewClock()
	if got := c.SessionsPerPeriod(); got != 10000 {
		t.Fatalf("SessionsPerPeriod = %d, want 10000 (50s / 5ms)", got)
	}
	cases := []struct {
		t       Instant
		session int
		period  int
	}{
		{Instant(0), 0, 0},
		{Instant(4_999_999 * time.Nanosecond), 0, 0},
		{Instant(5 * time.Millisecond), 1, 0},
		{Instant(50 * time.Second), 10000, 1},
		{Instant(125 * time.Second), 25000, 2},
	}
	for _, tc := range cases {
		if s := c.SessionStart(tc.session); tc.t.Before(s) || !tc.t.Before(c.SessionStart(tc.session+1)) {
			t.Errorf("%v outside session %d [%v, %v)", tc.t, tc.session, s, c.SessionStart(tc.session+1))
		}
		if p := c.PeriodStart(tc.period); tc.t.Before(p) || !tc.t.Before(c.PeriodStart(tc.period+1)) {
			t.Errorf("%v outside period %d [%v, %v)", tc.t, tc.period, p, c.PeriodStart(tc.period+1))
		}
	}
}

func TestClockStarts(t *testing.T) {
	c := NewClock()
	if got := c.SessionStart(3); got != Instant(15*time.Millisecond) {
		t.Fatalf("SessionStart(3) = %v", got)
	}
	if got := c.PeriodStart(2); got != Instant(100*time.Second) {
		t.Fatalf("PeriodStart(2) = %v", got)
	}
}

func TestClockPanicsOnZeroGranularity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SessionsPerPeriod on zero session did not panic")
		}
	}()
	var c Clock
	c.SessionsPerPeriod()
}
