package mathx

import (
	"testing"
	"testing/quick"
)

func TestMeanOf(t *testing.T) {
	if MeanOf(nil) != 0 {
		t.Fatal("MeanOf(nil) != 0")
	}
	if MeanOf([]float64{1, 2, 3}) != 2 {
		t.Fatal("MeanOf broken")
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	if c.N() != 4 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", got)
	}
	if c.Min() != 1 || c.Max() != 3 {
		t.Fatalf("Min/Max = %v/%v", c.Min(), c.Max())
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if pts := c.Points(10); pts != nil {
		t.Fatalf("empty CDF Points = %v", pts)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile on empty CDF did not panic")
		}
	}()
	c.Quantile(0.5)
}

func TestCDFPoints(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i)
	}
	c := NewCDF(samples)
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points len = %d", len(pts))
	}
	// Monotone in both coordinates.
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Fatalf("Points not monotone: %v", pts)
		}
	}
	if pts[len(pts)-1][1] != 1 {
		t.Fatalf("last point P = %v, want 1", pts[len(pts)-1][1])
	}
}

// Property: Quantile(q) is the smallest sample x with P(X ≤ x) ≥ q.
func TestCDFProperties(t *testing.T) {
	f := func(raw []int16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, x := range raw {
			xs[i] = float64(x)
		}
		c := NewCDF(xs)
		q := (float64(qRaw%100) + 1) / 100
		x := c.Quantile(q)
		var le, lt int
		for _, v := range xs {
			if v <= x {
				le++
			}
			if v < x {
				lt++
			}
		}
		n := float64(len(xs))
		return float64(le)/n >= q && float64(lt)/n < q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// q·n = 7.000000000000001 here, so ceil(q·n) would pick the 8th.
	xs := make([]float64, 25)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := NewCDF(xs).Quantile(0.28); got != 7 {
		t.Fatalf("Quantile(0.28) of 1..25 = %v, want 7", got)
	}
}

func TestMeanWhere(t *testing.T) {
	xs := []float64{1, 100, 3, 100}
	mask := []bool{true, false, true, false}
	if got := MeanWhere(xs, mask); got != 2 {
		t.Fatalf("MeanWhere = %v, want 2", got)
	}
	if got := MeanWhere(xs, []bool{false, false, false, false}); got != 0 {
		t.Fatalf("all-masked MeanWhere = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	MeanWhere(xs, mask[:2])
}
