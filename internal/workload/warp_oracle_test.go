package workload

import (
	"math"
	"math/rand"
	"testing"
)

// warpTimeOfDayOracle is the historical warp, kept verbatim as the
// differential oracle for warpTimeOfDay: a plain 50-step bisection that
// evaluates the CDF, both sines included, at every midpoint.
func warpTimeOfDayOracle(u, a, peak float64) float64 {
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		u = 1 - 1e-12
	}
	omega := 2 * math.Pi / 24
	cdf := func(tau float64) float64 {
		return tau/24 + a/(2*math.Pi)*(math.Sin(omega*(tau-peak))+math.Sin(omega*peak))
	}
	lo, hi := 0.0, 24.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func checkWarpAgainstOracle(t *testing.T, u, a, peak float64) {
	t.Helper()
	got, want := warpTimeOfDay(u, a, peak), warpTimeOfDayOracle(u, a, peak)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("warpTimeOfDay(%v, %v, %v) = %v, oracle %v", u, a, peak, got, want)
	}
}

// TestWarpMatchesOracle requires bit-identical warps over a million seeded
// (u, a, peak) triples: the calibrated amplitude 0.25, the steep 0.9 and
// 0.999 where the bracket check must reject Newton, random amplitudes, and
// the u edges (0, near 0, just below 1, and at or above 1). Amplitudes of
// 1 and more and peaks far outside the day, which the generator never
// passes, check that the fast path stands aside where its argument fails.
func TestWarpMatchesOracle(t *testing.T) {
	trials := 1_000_000
	if testing.Short() {
		trials = 100_000
	}
	edges := []float64{0, 1e-300, 1 - 1e-12, 1, 1.5, math.Inf(1)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < trials; i++ {
		a, peak := rng.Float64(), 24*rng.Float64()
		switch i % 6 {
		case 0:
			a = 0.25
		case 1:
			a = 0.9
		case 2:
			a = 0.999
		case 3:
			// The density goes negative, so the CDF is not monotone.
			a++
		case 4:
			// tau-peak rounds away the time of day.
			peak = 1e6 + 1e10*rng.Float64()
		}
		u := rng.Float64()
		if i%64 < len(edges) {
			u = edges[i%64]
		}
		checkWarpAgainstOracle(t, u, a, peak)
	}
}

// FuzzWarpTimeOfDay holds warpTimeOfDay to the plain bisection bit for bit
// on arbitrary inputs, including amplitudes and peaks outside the
// generator's validated range.
func FuzzWarpTimeOfDay(f *testing.F) {
	f.Add(0.5, 0.25, 14.0)
	f.Add(1e-300, 0.9, 3.0)
	f.Add(1-1e-12, 0.999, 23.5)
	f.Add(0.0, 0.5, 0.0)
	f.Add(2.0, 0.86, 14.0)
	f.Fuzz(checkWarpAgainstOracle)
}
