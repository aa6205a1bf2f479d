package arima

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/stats"
)

// genAR synthesizes an AR(1) series x_t = c + phi x_{t-1} + e_t.
func genAR(n int, c, phi, sigma float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	xs := make([]float64, n)
	xs[0] = c / (1 - phi)
	for i := 1; i < n; i++ {
		xs[i] = c + phi*xs[i-1] + rng.NormFloat64()*sigma
	}
	return xs
}

func TestFitARRecoversCoefficients(t *testing.T) {
	xs := genAR(3000, 1.0, 0.7, 0.5, 11)
	m, err := Fit(xs, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi[0]-0.7) > 0.05 {
		t.Errorf("phi = %v, want ~0.7", m.Phi[0])
	}
	if math.Abs(m.C-1.0) > 0.2 {
		t.Errorf("c = %v, want ~1", m.C)
	}
}

func TestFitARMARecoversMA(t *testing.T) {
	// ARMA(1,1): x_t = 0.6 x_{t-1} + e_t + 0.5 e_{t-1}.
	rng := rand.New(rand.NewPCG(13, 14))
	n := 6000
	xs := make([]float64, n)
	ePrev := 0.0
	for i := 1; i < n; i++ {
		e := rng.NormFloat64()
		xs[i] = 0.6*xs[i-1] + e + 0.5*ePrev
		ePrev = e
	}
	m, err := Fit(xs, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi[0]-0.6) > 0.1 {
		t.Errorf("phi = %v, want ~0.6", m.Phi[0])
	}
	if math.Abs(m.Theta[0]-0.5) > 0.15 {
		t.Errorf("theta = %v, want ~0.5", m.Theta[0])
	}
}

func TestFitIntegratedSeries(t *testing.T) {
	// Random walk with drift: first difference is iid with mean 0.5.
	rng := rand.New(rand.NewPCG(15, 16))
	n := 2000
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = xs[i-1] + 0.5 + rng.NormFloat64()*0.2
	}
	m, err := Fit(xs, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	// Forecasts should continue the drift: roughly last + 0.5*h.
	last := xs[n-1]
	for h, v := range f {
		want := last + 0.5*float64(h+1)
		if math.Abs(v-want) > 1.0 {
			t.Errorf("h=%d forecast %v, want ~%v", h+1, v, want)
		}
	}
}

func TestForecastConvergesToMean(t *testing.T) {
	xs := genAR(3000, 2.0, 0.5, 0.3, 17)
	m, err := Fit(xs, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(200)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := 2.0 / (1 - 0.5)
	if math.Abs(f[199]-wantMean) > 0.3 {
		t.Errorf("long-horizon forecast %v, want ~%v", f[199], wantMean)
	}
}

func TestUpdateWalkForwardBeatsNaive(t *testing.T) {
	xs := genAR(1200, 0.5, 0.8, 1.0, 19)
	train, test := xs[:1000], xs[1000:]
	m, err := Fit(train, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(test))
	naive := make([]float64, len(test))
	prev := train[len(train)-1]
	for i, x := range test {
		p, err := m.PredictNext()
		if err != nil {
			t.Fatal(err)
		}
		preds[i] = p
		naive[i] = prev
		prev = x
		m.Update(x)
	}
	rmseModel, _ := stats.RMSE(preds, test)
	rmseNaive, _ := stats.RMSE(naive, test)
	if rmseModel >= rmseNaive {
		t.Errorf("ARIMA RMSE %v should beat naive %v", rmseModel, rmseNaive)
	}
}

func TestUpdateWithDifferencing(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	n := 600
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = xs[i-1] + 1 + rng.NormFloat64()*0.1
	}
	m, err := Fit(xs[:500], 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[500:] {
		p, err := m.PredictNext()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-x) > 2 {
			t.Errorf("one-step prediction %v far from %v", p, x)
		}
		m.Update(x)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1, 2, 3}, -1, 0, 0); err == nil {
		t.Error("p<0 should error")
	}
	if _, err := Fit([]float64{1, 2, 3}, 1, -1, 0); err == nil {
		t.Error("d<0 should error")
	}
	if _, err := Fit([]float64{1, 2}, 2, 0, 0); err == nil {
		t.Error("too-short series should error")
	}
	if _, err := Fit(make([]float64, 10), 1, 0, 3); err == nil {
		t.Error("too-short for HR should error")
	}
}

func TestForecastErrors(t *testing.T) {
	m, err := Fit(genAR(100, 0, 0.5, 1, 23), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(0); err == nil {
		t.Error("h=0 should error")
	}
}

func TestSelectOrderPicksReasonableModel(t *testing.T) {
	// AR(2) process.
	rng := rand.New(rand.NewPCG(25, 26))
	n := 2000
	xs := make([]float64, n)
	for i := 2; i < n; i++ {
		xs[i] = 0.5*xs[i-1] + 0.3*xs[i-2] + rng.NormFloat64()
	}
	m, err := SelectOrder(xs, 4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.D != 0 {
		t.Errorf("stationary series should get d=0, got %d", m.D)
	}
	if m.P < 1 || m.P > 4 {
		t.Errorf("p = %d out of grid", m.P)
	}
	// The fit must at least track the process 1-step.
	p, err := m.PredictNext()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("prediction = %v", p)
	}
}

func TestSelectOrderUnitRootGetsDifferenced(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 28))
	n := 1500
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = xs[i-1] + rng.NormFloat64()*0.05 + 0.2
	}
	m, err := SelectOrder(xs, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.D < 1 {
		t.Errorf("random walk should get d>=1, got %d", m.D)
	}
}

func TestSelectOrderTooShort(t *testing.T) {
	if _, err := SelectOrder([]float64{1, 2}, 3, 1, 2); err == nil {
		t.Error("tiny series should error")
	}
}

func TestAICFinite(t *testing.T) {
	m, err := Fit(genAR(300, 0, 0.5, 1, 29), 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := m.AIC(); math.IsNaN(a) || math.IsInf(a, 0) {
		t.Errorf("AIC = %v", a)
	}
}

// genMA synthesizes an MA(1) series x_t = mu + e_t + theta e_{t-1}.
func genMA(n int, mu, theta, sigma float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	xs := make([]float64, n)
	ePrev := 0.0
	for i := 0; i < n; i++ {
		e := rng.NormFloat64() * sigma
		xs[i] = mu + e + theta*ePrev
		ePrev = e
	}
	return xs
}

func TestFitPureMARecoversTheta(t *testing.T) {
	xs := genMA(5000, 0, 0.6, 1.0, 31)
	m, err := Fit(xs, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.P != 0 || len(m.Phi) != 0 {
		t.Fatalf("pure MA fit has AR terms: P=%d Phi=%v", m.P, m.Phi)
	}
	if math.Abs(m.Theta[0]-0.6) > 0.1 {
		t.Errorf("theta = %v, want ~0.6", m.Theta[0])
	}
}

func TestFitInterceptOnly(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	xs := make([]float64, 500)
	var mean float64
	for i := range xs {
		xs[i] = 3 + rng.NormFloat64()
		mean += xs[i]
	}
	mean /= float64(len(xs))
	m, err := Fit(xs, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.C-mean) > 1e-9 {
		t.Errorf("intercept = %v, want sample mean %v", m.C, mean)
	}
	f, err := m.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f {
		if math.Abs(v-mean) > 1e-9 {
			t.Errorf("white-noise forecast %v should be the mean %v", v, mean)
		}
	}
	if a := m.AIC(); math.IsNaN(a) || math.IsInf(a, 0) {
		t.Errorf("AIC = %v", a)
	}
}

// TestSelectOrderIncludesPureMA is the regression test for the grid
// starting at p=1: on an MA(1)-generated series the AIC-best model is a
// pure-MA ARIMA(0,0,q), which the old grid could never return.
func TestSelectOrderIncludesPureMA(t *testing.T) {
	xs := genMA(4000, 0, 0.8, 1.0, 35)
	m, err := SelectOrder(xs, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.P != 0 {
		t.Errorf("MA(1) series selected P=%d, want 0 (pure MA must be a candidate)", m.P)
	}
	if m.Q < 1 {
		t.Errorf("MA(1) series selected Q=%d, want >= 1", m.Q)
	}
	if m.D != 0 {
		t.Errorf("stationary MA(1) series selected D=%d, want 0", m.D)
	}
}

// TestChooseDNegativeACFKeepsD0 is the regression test for the
// over-differencing bug: an alternating series has acf(1) ~ -1, the
// textbook sign of over-differencing, and must NOT be differenced.
func TestChooseDNegativeACFKeepsD0(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	if d := chooseD(xs, 2); d != 0 {
		t.Fatalf("alternating series chooseD = %d, want 0", d)
	}
	m, err := SelectOrder(xs, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.D != 0 {
		t.Fatalf("alternating series selected D=%d, want 0", m.D)
	}
}

// TestSelectOrderParallelMatchesSerial pins the determinism contract: the
// parallel grid must select exactly the model a serial loop over the same
// grid picks, including (p,q)-order tie-breaking.
func TestSelectOrderParallelMatchesSerial(t *testing.T) {
	for _, seed := range []uint64{41, 43, 45, 47} {
		xs := genAR(400, 0.5, 0.6, 1.0, seed)
		maxP, maxD, maxQ := 3, 1, 2
		got, err := SelectOrder(xs, maxP, maxD, maxQ)
		if err != nil {
			t.Fatal(err)
		}
		// Serial reference: same grid, same strict-< reduction.
		d := chooseD(xs, maxD)
		var want *Model
		for p := 0; p <= maxP; p++ {
			for q := 0; q <= maxQ; q++ {
				m, err := Fit(xs, p, d, q)
				if err != nil {
					continue
				}
				if want == nil || m.AIC() < want.AIC() {
					want = m
				}
			}
		}
		if want == nil {
			t.Fatal("serial reference found no model")
		}
		if got.P != want.P || got.D != want.D || got.Q != want.Q {
			t.Fatalf("seed %d: parallel picked (%d,%d,%d), serial picked (%d,%d,%d)",
				seed, got.P, got.D, got.Q, want.P, want.D, want.Q)
		}
		if got.AIC() != want.AIC() {
			t.Fatalf("seed %d: AIC differs: %v vs %v", seed, got.AIC(), want.AIC())
		}
	}
}

func TestPersistPureMAModel(t *testing.T) {
	xs := genMA(600, 0, 0.5, 1.0, 49)
	m, err := Fit(xs, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatalf("round-trip of P=0 model rejected: %v", err)
	}
	p1, err := m.PredictNext()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := back.PredictNext()
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatalf("round-trip prediction %v != original %v", p2, p1)
	}
}

// TestSelectOrderRejectsExplosiveModels pins the stability guard: a short
// strictly periodic series used to drive Hannan–Rissanen to an explosive
// MA estimate whose residual recursion overflowed to +Inf — the selected
// model then predicted astronomical values and could not be serialized.
// The guard must make SelectOrder fall back to a sane candidate.
func TestSelectOrderRejectsExplosiveModels(t *testing.T) {
	for n := 40; n <= 60; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(3 + i%5)
		}
		m, err := SelectOrder(xs, 1, 0, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		p, err := m.PredictNext()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if math.IsNaN(p) || math.IsInf(p, 0) || math.Abs(p) > 100 {
			t.Fatalf("n=%d: explosive prediction %v from ARIMA(%d,%d,%d)", n, p, m.P, m.D, m.Q)
		}
		if _, err := m.MarshalJSON(); err != nil {
			t.Fatalf("n=%d: selected model does not serialize: %v", n, err)
		}
	}
}

// TestPredictNextMatchesForecast pins PredictNext to Forecast(1)[0] bit for
// bit for every order with p <= 3, d <= 1 and q <= 1: on a fresh fit, after
// walk-forward Updates, and after FoldIns that trimmed the state.
func TestPredictNextMatchesForecast(t *testing.T) {
	check := func(m *Model, what string) {
		t.Helper()
		got, err := m.PredictNext()
		if err != nil {
			t.Fatalf("ARIMA(%d,%d,%d) %s: PredictNext: %v", m.P, m.D, m.Q, what, err)
		}
		f, err := m.Forecast(1)
		if err != nil {
			t.Fatalf("ARIMA(%d,%d,%d) %s: Forecast: %v", m.P, m.D, m.Q, what, err)
		}
		if math.Float64bits(got) != math.Float64bits(f[0]) {
			t.Fatalf("ARIMA(%d,%d,%d) %s: PredictNext %v (%#x), Forecast(1) %v (%#x)",
				m.P, m.D, m.Q, what, got, math.Float64bits(got), f[0], math.Float64bits(f[0]))
		}
	}
	// d=0 fits a stationary AR(1) series; d=1 fits the random walk whose
	// increments it is.
	stationary := genAR(220, 0.3, 0.5, 1, 9)
	walk := make([]float64, len(stationary))
	var level float64
	for i, s := range stationary {
		level += s
		walk[i] = 50 + level
	}
	for p := 0; p <= 3; p++ {
		for d := 0; d <= 1; d++ {
			xs := [2][]float64{stationary, walk}[d]
			for q := 0; q <= 1; q++ {
				m, err := Fit(xs[:120], p, d, q)
				if err != nil {
					t.Fatalf("Fit(%d,%d,%d): %v", p, d, q, err)
				}
				check(m, "fresh fit")
				for i, x := range xs[120:150] {
					m.Update(x)
					check(m, fmt.Sprintf("after %d updates", i+1))
				}
				// Fold-ins trim the state back to the length before each
				// call, so these run on trimmed histories.
				before := len(m.w)
				for i := 150; i < len(xs); i += 10 {
					_ = m.FoldIn(xs[i:i+10], 0)
					check(m, fmt.Sprintf("after fold-in through %d", i+10))
				}
				if m.trimmed == 0 || len(m.w) != before {
					t.Fatalf("ARIMA(%d,%d,%d): fold-ins trimmed %d values, state %d (want %d)",
						p, d, q, m.trimmed, len(m.w), before)
				}
			}
		}
	}
}
