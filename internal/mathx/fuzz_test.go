package mathx

import (
	"math"
	"testing"
)

// FuzzFitScaling fuzzes the power-law regression the profiler fits
// over measured latency grids (one law per profile.Table cell). The
// x grid mirrors the profiled GPU fractions; the ys are fuzzed.
// Properties:
//
//   - the fit never panics, for any finite input;
//   - on the valid domain (positive, moderate ys) it succeeds, returns
//     finite parameters, and is deterministic;
//   - points sampled exactly from a power law are recovered.
func FuzzFitScaling(f *testing.F) {
	f.Add(0.004, 0.009, 0.018, 0.035, 2.0, -0.5)
	f.Add(1.0, 1.0, 1.0, 1.0, 0.001, 4.0)
	f.Add(120.0, 60.0, 30.0, 15.0, 900.0, -1.0)
	f.Add(0.0, -1.0, 1e9, 1e-9, 1.0, 0.0)
	f.Fuzz(func(t *testing.T, y1, y2, y3, y4, a, b float64) {
		xs := []float64{0.1, 0.25, 0.5, 1}
		ys := []float64{y1, y2, y3, y4}
		for _, y := range ys {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				return
			}
		}

		// Outside the valid domain the only requirement is an error or
		// a result — never a panic (implicit: this call returning).
		law, lawErr := FitPowerLaw(xs, ys)

		valid := true
		for _, y := range ys {
			if y < 1e-6 || y > 1e6 {
				valid = false
			}
		}
		if valid {
			if lawErr != nil {
				t.Fatalf("FitPowerLaw rejected valid ys %v: %v", ys, lawErr)
			}
			if !finite(law.A) || !finite(law.B) || law.A <= 0 {
				t.Fatalf("FitPowerLaw(%v) = %+v, want finite with A > 0", ys, law)
			}
			if v := law.At(0.7); !finite(v) || v <= 0 {
				t.Fatalf("law %+v evaluates to %g at 0.7", law, v)
			}
			law2, err2 := FitPowerLaw(xs, ys)
			if err2 != nil || law2 != law {
				t.Fatalf("FitPowerLaw not deterministic: %+v vs %+v (%v)", law, law2, err2)
			}
		}

		// Exact power-law points must be recovered.
		if a >= 1e-3 && a <= 1e3 && b >= -4 && b <= 4 {
			exact := make([]float64, len(xs))
			for i, x := range xs {
				exact[i] = a * math.Pow(x, b)
			}
			got, err := FitPowerLaw(xs, exact)
			if err != nil {
				t.Fatalf("FitPowerLaw rejected exact law A=%g B=%g: %v", a, b, err)
			}
			for i, x := range xs {
				if v := got.At(x); math.Abs(v-exact[i]) > 1e-6*exact[i] {
					t.Fatalf("law A=%g B=%g: At(%g) = %g, want %g", a, b, x, v, exact[i])
				}
			}
		}
	})
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
