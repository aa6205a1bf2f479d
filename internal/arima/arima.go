// Package arima implements autoregressive integrated moving average models
// — ARIMA(p,d,q) — the engine of the paper's temporal model (§IV). The
// forecast of the AR part is a function of past observations, the MA part a
// function of past errors (Eq. 5). Estimation uses the two-stage
// Hannan–Rissanen procedure built on OLS, which keeps the package free of
// nonlinear optimizers while remaining faithful to the model class.
package arima

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/regress"
	"repro/internal/timeseries"
)

// ErrTooShort is returned when a series has too few observations for the
// requested model order.
var ErrTooShort = errors.New("arima: series too short for requested order")

// ErrUnstable is returned when estimation produces a numerically unstable
// model — non-finite coefficients, or an explosive residual recursion from
// a non-stationary AR / non-invertible MA estimate. SelectOrder skips such
// candidates.
var ErrUnstable = errors.New("arima: estimation produced an unstable model")

// Model is a fitted ARIMA(p,d,q) model:
//
//	w_t = C + Σ_{j=1..p} Phi[j-1] w_{t-j} + Σ_{j=1..q} Theta[j-1] e_{t-j} + e_t
//
// where w is the d-th difference of the observed series.
type Model struct {
	P, D, Q int
	Phi     []float64 // AR coefficients, lag 1 first
	Theta   []float64 // MA coefficients, lag 1 first
	C       float64   // intercept

	w    []float64 // differenced history
	e    []float64 // residual history aligned with w (presample entries are 0)
	orig []float64 // original-scale history (for integration seeds)

	// trimmed counts the original-scale values FoldIn dropped from orig.
	trimmed int

	rss float64
	n   int // observations used in the estimation regression
}

// Fit estimates an ARIMA(p,d,q) model on xs. p, d, and q must be >= 0.
// ARIMA(0,d,q) fits a pure-MA model; ARIMA(0,d,0) is the intercept-only
// white-noise model — both are legitimate AIC candidates (a grid that
// skips them can never select an over-differenced or moving-average-only
// process).
func Fit(xs []float64, p, d, q int) (*Model, error) {
	if p < 0 || d < 0 || q < 0 {
		return nil, fmt.Errorf("arima: invalid order (%d,%d,%d)", p, d, q)
	}
	w, err := timeseries.Diff(xs, d)
	if err != nil {
		return nil, ErrTooShort
	}
	minLen := p + q + 2
	if minLen < 3 {
		// Even the intercept-only model needs a residual degree of freedom
		// beyond the mean for its variance (and AIC) to carry information.
		minLen = 3
	}
	if q > 0 {
		minLen += longAROrder(p, q, len(w))
	}
	if len(w) < minLen {
		return nil, ErrTooShort
	}
	m := &Model{P: p, D: d, Q: q}
	m.orig = append(m.orig, xs...)
	m.w = append(m.w, w...)
	switch {
	case p == 0 && q == 0:
		m.fitIntercept(w)
	case q == 0:
		if err := m.fitAR(w, p); err != nil {
			return nil, err
		}
	default:
		if err := m.fitHannanRissanen(w, p, q); err != nil {
			return nil, err
		}
	}
	m.computeResiduals()
	if !m.stable() {
		return nil, ErrUnstable
	}
	return m, nil
}

// stable reports whether the fitted state is numerically sane: finite
// coefficients and in-sample residuals that stay within a large multiple
// of the differenced series' scale. The OLS stages place no stationarity
// or invertibility constraint on the estimates, so a pathological series
// can yield e.g. |theta| > 1, whose residual recursion grows geometrically
// — after a handful of steps it dwarfs the data by many orders of
// magnitude, which is what the residual bound detects.
func (m *Model) stable() bool {
	if math.IsNaN(m.C) || math.IsInf(m.C, 0) || math.IsNaN(m.rss) || math.IsInf(m.rss, 0) {
		return false
	}
	for _, cs := range [2][]float64{m.Phi, m.Theta} {
		for _, c := range cs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
	}
	var scale float64
	for _, v := range m.w {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	limit := 1e8 * (scale + 1)
	for _, v := range m.e {
		if !(math.Abs(v) <= limit) { // NaN fails the comparison too
			return false
		}
	}
	return true
}

// fitIntercept estimates the degenerate ARIMA(0,d,0): w_t = C + e_t, the
// sample-mean model. It anchors the AIC grid so pure noise is not forced
// into spurious AR or MA structure.
func (m *Model) fitIntercept(w []float64) {
	var mean float64
	for _, v := range w {
		mean += v
	}
	mean /= float64(len(w))
	var rss float64
	for _, v := range w {
		d := v - mean
		rss += d * d
	}
	m.C = mean
	m.Phi, m.Theta = nil, nil
	m.rss = rss
	m.n = len(w)
}

// fitAR estimates a pure AR(p) by OLS on the lag matrix.
func (m *Model) fitAR(w []float64, p int) error {
	rows, ys, err := timeseries.LagMatrix(w, p)
	if err != nil {
		return ErrTooShort
	}
	ols, err := regress.Fit(rows, ys)
	if err != nil {
		return fmt.Errorf("arima: AR estimation: %w", err)
	}
	m.C = ols.Intercept
	m.Phi = ols.Coeffs
	m.Theta = nil
	m.rss = ols.RSS
	m.n = ols.N
	return nil
}

// longAROrder picks the order of the first-stage long autoregression used
// by Hannan–Rissanen to approximate the innovations.
func longAROrder(p, q, n int) int {
	order := p + q + 4
	if order < 8 {
		order = 8
	}
	if max := n/4 - 1; order > max {
		order = max
	}
	if order < p+q {
		order = p + q
	}
	return order
}

// fitHannanRissanen estimates an ARMA(p,q) in two OLS stages: a long AR fit
// yields residuals approximating the innovations, then the series is
// regressed on its own lags and the lagged residuals.
func (m *Model) fitHannanRissanen(w []float64, p, q int) error {
	long := longAROrder(p, q, len(w))
	rows, ys, err := timeseries.LagMatrix(w, long)
	if err != nil {
		return ErrTooShort
	}
	stage1, err := regress.Fit(rows, ys)
	if err != nil {
		return fmt.Errorf("arima: HR stage 1: %w", err)
	}
	// Innovation estimates aligned with w: zero for the presample.
	eh := make([]float64, len(w))
	for i, row := range rows {
		eh[i+long] = ys[i] - stage1.Predict(row)
	}
	// Stage 2: regress w_t on p lags of w and q lags of eh, for
	// t >= long+q so every regressor is a genuine (non-presample) value.
	start := long + q
	if start < p {
		start = p
	}
	nObs := len(w) - start
	if nObs < p+q+2 {
		return ErrTooShort
	}
	rows2 := make([][]float64, nObs)
	ys2 := make([]float64, nObs)
	for i := 0; i < nObs; i++ {
		t := start + i
		row := make([]float64, p+q)
		for j := 1; j <= p; j++ {
			row[j-1] = w[t-j]
		}
		for j := 1; j <= q; j++ {
			row[p+j-1] = eh[t-j]
		}
		rows2[i] = row
		ys2[i] = w[t]
	}
	stage2, err := regress.Fit(rows2, ys2)
	if err != nil {
		return fmt.Errorf("arima: HR stage 2: %w", err)
	}
	m.C = stage2.Intercept
	m.Phi = stage2.Coeffs[:p]
	m.Theta = stage2.Coeffs[p:]
	if p == 0 {
		m.Phi = nil // pure MA: keep the canonical nil form persistence expects
	}
	m.rss = stage2.RSS
	m.n = stage2.N
	return nil
}

// computeResiduals fills m.e with one-step in-sample residuals over the
// differenced history, using zeros for the presample.
func (m *Model) computeResiduals() {
	m.e = make([]float64, len(m.w))
	for t := m.P; t < len(m.w); t++ {
		m.e[t] = m.w[t] - m.stepAt(t)
	}
	// Recompute once so MA terms see first-pass residuals rather than the
	// zero presample (a light second iteration improves early residuals).
	for t := m.P; t < len(m.w); t++ {
		m.e[t] = m.w[t] - m.stepAt(t)
	}
}

// stepAt returns the model's one-step prediction of w[t] from history
// strictly before t (residuals before index P, or negative, read as zero).
func (m *Model) stepAt(t int) float64 {
	pred := m.C
	for j := 1; j <= m.P; j++ {
		if t-j < 0 {
			return pred
		}
		pred += m.Phi[j-1] * m.w[t-j]
	}
	for j := 1; j <= m.Q; j++ {
		if t-j >= 0 {
			pred += m.Theta[j-1] * m.e[t-j]
		}
	}
	return pred
}

// Forecast returns h-step-ahead forecasts on the original scale of the
// series the model was fitted on (or last Updated with).
func (m *Model) Forecast(h int) ([]float64, error) {
	if h < 1 {
		return nil, errors.New("arima: horizon must be >= 1")
	}
	w := append([]float64(nil), m.w...)
	e := append([]float64(nil), m.e...)
	diffs := make([]float64, h)
	for s := 0; s < h; s++ {
		pred := m.nextDiff(w, e)
		diffs[s] = pred
		w = append(w, pred)
		e = append(e, 0)
	}
	if m.D == 0 {
		return diffs, nil
	}
	seeds := m.orig[len(m.orig)-m.D:]
	return timeseries.Integrate(diffs, seeds)
}

// nextDiff returns the forecast of the differenced value that follows w,
// given the residuals e aligned with it (future residuals are zero).
func (m *Model) nextDiff(w, e []float64) float64 {
	t := len(w)
	pred := m.C
	for j := 1; j <= m.P; j++ {
		if t-j >= 0 {
			pred += m.Phi[j-1] * w[t-j]
		}
	}
	for j := 1; j <= m.Q; j++ {
		if t-j >= 0 {
			pred += m.Theta[j-1] * e[t-j]
		}
	}
	return pred
}

// PredictNext returns the one-step-ahead forecast on the original scale:
// Forecast(1)[0] bit for bit, without copying the history.
func (m *Model) PredictNext() (float64, error) {
	pred := m.nextDiff(m.w, m.e)
	// Integrate over the last D originals as timeseries.Integrate does:
	// from level D-1 down to 0, add the last value of the seeds' k-th
	// difference.
	seeds := m.orig[len(m.orig)-m.D:]
	for k := m.D - 1; k >= 0; k-- {
		level, err := timeseries.Diff(seeds, k)
		if err != nil {
			return 0, err
		}
		pred = level[len(level)-1] + pred
	}
	return pred, nil
}

// Update appends a newly observed value (original scale) to the model
// state without re-estimating coefficients, recording the innovation it
// implies. This enables walk-forward one-step evaluation as in the paper's
// test-set validation.
func (m *Model) Update(x float64) {
	var wNew float64
	if m.D == 0 {
		wNew = x
	} else {
		ext := append(append([]float64(nil), m.orig[len(m.orig)-m.D:]...), x)
		d, err := timeseries.Diff(ext, m.D)
		if err != nil || len(d) == 0 {
			return
		}
		wNew = d[len(d)-1]
	}
	t := len(m.w)
	m.w = append(m.w, wNew)
	m.e = append(m.e, 0)
	m.e[t] = wNew - m.stepAt(t)
	m.orig = append(m.orig, x)
}

// Observations returns the number of original-scale observations the model
// currently holds: the fitted series plus every Update since. Serving-layer
// registries use it to report model staleness without reaching into the
// internal history.
func (m *Model) Observations() int { return m.trimmed + len(m.orig) }

// AIC returns the Akaike information criterion of the fitted model.
func (m *Model) AIC() float64 {
	if m.n == 0 {
		return math.Inf(1)
	}
	rssPerN := m.rss / float64(m.n)
	if rssPerN <= 0 {
		rssPerN = 1e-300
	}
	k := float64(m.P + m.Q + 1)
	return float64(m.n)*math.Log(rssPerN) + 2*k
}

// SelectOrder fits ARIMA models over the full (p,q) grid — including the
// pure-MA column p=0 and the intercept-only corner (0,d,0) — and returns
// the model with the best (lowest) AIC. The differencing order is chosen
// first by a persistence heuristic: difference while the lag-1
// autocorrelation stays above 0.9 (an indication of a unit root), up to
// maxD.
//
// The grid is fitted on the parallel worker pool: every candidate order is
// independent, and the winner is reduced from the results in grid order
// (p ascending, then q ascending) with a strict comparison — exactly the
// model the serial loop would pick, including tie-breaks.
func SelectOrder(xs []float64, maxP, maxD, maxQ int) (*Model, error) {
	if maxP < 1 {
		maxP = 1
	}
	if maxQ < 0 {
		maxQ = 0
	}
	d := chooseD(xs, maxD)
	type order struct{ p, q int }
	grid := make([]order, 0, (maxP+1)*(maxQ+1))
	for p := 0; p <= maxP; p++ {
		for q := 0; q <= maxQ; q++ {
			grid = append(grid, order{p, q})
		}
	}
	// Infeasible orders are skipped, not errors, so Map never fails here.
	models, _ := parallel.Map(len(grid), 0, func(i int) (*Model, error) {
		m, err := Fit(xs, grid[i].p, d, grid[i].q)
		if err != nil {
			return nil, nil
		}
		return m, nil
	})
	var best *Model
	for _, m := range models {
		if m == nil {
			continue
		}
		if best == nil || m.AIC() < best.AIC() {
			best = m
		}
	}
	if best == nil {
		return nil, ErrTooShort
	}
	return best, nil
}

// chooseD differences only on a strongly *positive* lag-1 autocorrelation.
// A strongly negative acf(1) is the textbook signature of an already
// over-differenced series — differencing again would make it worse, so it
// must terminate the loop, not extend it.
func chooseD(xs []float64, maxD int) int {
	cur := xs
	for d := 0; d < maxD; d++ {
		if len(cur) < 3 {
			return d
		}
		acf := timeseries.ACF(cur, 1)
		if len(acf) < 2 || math.IsNaN(acf[1]) || acf[1] < 0.9 {
			return d
		}
		next, err := timeseries.Diff(cur, 1)
		if err != nil {
			return d
		}
		cur = next
	}
	return maxD
}
