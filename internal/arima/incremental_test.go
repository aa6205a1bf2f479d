package arima

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// ar1Series simulates a stationary AR(1) process x_t = c + phi x_{t-1} + e_t.
func ar1Series(n int, c, phi, sigma float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	x := c / (1 - phi)
	for i := range xs {
		x = c + phi*x + sigma*rng.NormFloat64()
		xs[i] = x
	}
	return xs
}

func TestCloneIsDeep(t *testing.T) {
	xs := ar1Series(120, 2, 0.6, 1, 1)
	m, err := Fit(xs, 1, 0, 1)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	c := m.Clone()
	want, _ := m.PredictNext()
	// Mutating the clone must not disturb the original.
	c.Update(1e6)
	c.Phi[0] = -0.99
	got, _ := m.PredictNext()
	if got != want {
		t.Fatalf("original forecast changed after clone mutation: %v != %v", got, want)
	}
	if m.Observations() == c.Observations() {
		t.Fatalf("clone Update leaked into original history")
	}
	if (*Model)(nil).Clone() != nil {
		t.Fatalf("nil Clone should stay nil")
	}
}

// TestIncrementalFoldInTracksFullRefit is the incremental-vs-full
// equivalence property: on a stationary series, fitting a prefix and
// folding in the remainder must (a) keep the drift diagnostic quiet,
// (b) keep coefficients within estimation tolerance of the full-window
// refit, and (c) keep one-step forecasts close to the full refit's.
func TestIncrementalFoldInTracksFullRefit(t *testing.T) {
	for _, seed := range []int64{3, 7, 11, 19, 23} {
		xs := ar1Series(240, 1.5, 0.55, 1, seed)
		split := 200

		inc, err := Fit(xs[:split], 1, 0, 0)
		if err != nil {
			t.Fatalf("seed %d: prefix Fit: %v", seed, err)
		}
		if err := inc.FoldIn(xs[split:], 4); err != nil {
			t.Fatalf("seed %d: FoldIn flagged drift on a stationary series: %v", seed, err)
		}

		full, err := Fit(xs, 1, 0, 0)
		if err != nil {
			t.Fatalf("seed %d: full Fit: %v", seed, err)
		}

		// Coefficients: both estimate the same AR(1); they differ only by
		// the estimator's own sampling noise over 200 vs 240 observations.
		if d := math.Abs(inc.Phi[0] - full.Phi[0]); d > 0.15 {
			t.Fatalf("seed %d: phi drift %v (inc %v vs full %v)", seed, d, inc.Phi[0], full.Phi[0])
		}

		fInc, err := inc.PredictNext()
		if err != nil {
			t.Fatalf("seed %d: inc PredictNext: %v", seed, err)
		}
		fFull, err := full.PredictNext()
		if err != nil {
			t.Fatalf("seed %d: full PredictNext: %v", seed, err)
		}
		scale := math.Abs(fFull) + 1
		if d := math.Abs(fInc-fFull) / scale; d > 0.25 {
			t.Fatalf("seed %d: forecast drift %.3f (inc %v vs full %v)", seed, d, fInc, fFull)
		}
	}
}

func TestIncrementalFoldInFlagsRegimeChange(t *testing.T) {
	xs := ar1Series(200, 1.5, 0.55, 1, 5)
	m, err := Fit(xs, 1, 0, 0)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// A level shift two orders of magnitude above the fitted regime must
	// trip the residual diagnostic.
	shifted := make([]float64, 24)
	for i := range shifted {
		shifted[i] = 400 + float64(i)
	}
	if err := m.FoldIn(shifted, 4); !errors.Is(err, ErrDrift) {
		t.Fatalf("FoldIn on a regime change: got %v, want ErrDrift", err)
	}
	// State still advanced: a follow-up full refit sees the new values.
	if m.Observations() != 224 {
		t.Fatalf("Observations after fold = %d, want 224", m.Observations())
	}
}

func TestIncrementalFoldInFlagsDriftAcrossStateCap(t *testing.T) {
	// A fold-in large enough to cross foldStateCap trims the walk-forward
	// state; the drift diagnostic must still run on the residuals the
	// fold-in produced — big fold-ins are the ones most likely to drift.
	xs := ar1Series(200, 1.5, 0.55, 1, 5)
	m, err := Fit(xs, 1, 0, 0)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	shifted := make([]float64, foldStateCap)
	for i := range shifted {
		shifted[i] = 400 + float64(i%7)
	}
	if err := m.FoldIn(shifted, 4); !errors.Is(err, ErrDrift) {
		t.Fatalf("FoldIn across the state cap on a regime change: got %v, want ErrDrift", err)
	}
	if len(m.w) > foldStateCap {
		t.Fatalf("state grew unbounded: w=%d cap=%d", len(m.w), foldStateCap)
	}
}

func TestIncrementalFoldInBoundsState(t *testing.T) {
	xs := ar1Series(128, 1, 0.4, 1, 9)
	m, err := Fit(xs, 1, 0, 0)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	for i := 0; i < 40; i++ {
		if err := m.FoldIn(ar1Series(64, 1, 0.4, 1, int64(100+i)), 0); err != nil {
			t.Fatalf("FoldIn %d: %v", i, err)
		}
	}
	if len(m.w) > foldStateCap || len(m.orig) > foldStateCap {
		t.Fatalf("state grew unbounded: w=%d orig=%d cap=%d", len(m.w), len(m.orig), foldStateCap)
	}
	if f, err := m.PredictNext(); err != nil || math.IsNaN(f) {
		t.Fatalf("forecast after trims: %v, %v", f, err)
	}
}

// TestFoldInStateHoldsFitLength folds many tails into a chain of clones,
// as the serving layer's incremental generations do, and checks that each
// generation holds exactly its fitted state (plus D original-scale values)
// in exactly sized slices, while forecasting bit-identically to a model
// that walked the same values with untrimmed Updates.
func TestFoldInStateHoldsFitLength(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 96+40*6)
	level := 50.0
	for i := range xs {
		level += 0.3 + rng.NormFloat64()
		xs[i] = level + 2*rng.NormFloat64()
	}
	for _, order := range [][3]int{{1, 0, 0}, {0, 0, 1}, {1, 1, 1}, {2, 1, 0}} {
		p, d, q := order[0], order[1], order[2]
		fit, err := Fit(xs[:96], p, d, q)
		if err != nil {
			t.Fatalf("ARIMA%v: Fit: %v", order, err)
		}
		held := len(fit.w)
		walk := fit.Clone()
		gen := fit
		for i := 0; i < 40; i++ {
			folded := xs[96+6*i : 96+6*(i+1)]
			next := gen.Clone()
			if err := next.FoldIn(folded, 0); err != nil {
				t.Fatalf("ARIMA%v: FoldIn %d: %v", order, i, err)
			}
			for _, x := range folded {
				walk.Update(x)
			}
			gen = next
			if len(gen.w) != held || cap(gen.w) != held || len(gen.e) != held || cap(gen.e) != held ||
				len(gen.orig) != held+d || cap(gen.orig) != held+d {
				t.Fatalf("ARIMA%v fold %d: state w %d/%d e %d/%d orig %d/%d, want %d, %d and %d",
					order, i, len(gen.w), cap(gen.w), len(gen.e), cap(gen.e), len(gen.orig), cap(gen.orig), held, held, held+d)
			}
			if got, want := gen.Observations(), walk.Observations(); got != want {
				t.Fatalf("ARIMA%v fold %d: Observations %d, want %d", order, i, got, want)
			}
			got, err := gen.Forecast(5)
			if err != nil {
				t.Fatalf("ARIMA%v fold %d: Forecast: %v", order, i, err)
			}
			want, err := walk.Forecast(5)
			if err != nil {
				t.Fatalf("ARIMA%v fold %d: walk Forecast: %v", order, i, err)
			}
			for h := range want {
				if got[h] != want[h] {
					t.Fatalf("ARIMA%v fold %d: step %d forecast %v, untrimmed walk %v", order, i, h+1, got[h], want[h])
				}
			}
		}
	}
}
