package arima

import (
	"errors"
	"math"
)

// ErrDrift is returned by FoldIn when the residuals implied by the newly
// folded observations degrade past the caller's threshold relative to the
// in-sample fit — the signal that the frozen coefficients no longer
// describe the process and a full re-estimation is due.
var ErrDrift = errors.New("arima: folded residuals drifted past threshold")

// foldStateCap bounds the walk-forward state an incrementally maintained
// model keeps even when it was fitted on a longer series. Forecasting
// needs only the last max(P,Q,D)+1 values.
const foldStateCap = 2 * maxPersistedState

// Clone returns a deep copy of the model: coefficient vectors and
// walk-forward state share no memory with the receiver. Incremental refits
// clone the previous generation's model before folding in the new tail so
// the published generation stays immutable under concurrent readers.
func (m *Model) Clone() *Model {
	if m == nil {
		return nil
	}
	c := *m
	c.Phi = append([]float64(nil), m.Phi...)
	c.Theta = append([]float64(nil), m.Theta...)
	c.w = append([]float64(nil), m.w...)
	c.e = append([]float64(nil), m.e...)
	c.orig = append([]float64(nil), m.orig...)
	return &c
}

// FoldIn advances the model over newly observed values (original scale)
// without re-estimating coefficients: each value is absorbed as a
// walk-forward Update, O(len(xs)·(P+Q)) total, independent of the fitted
// window length. It then runs a residual diagnostic: if the mean squared
// innovation of the folded tail exceeds maxRatio times the in-sample
// residual variance of the original estimation, the coefficients have
// stopped describing the process and ErrDrift is returned — the model state
// still holds the folded values, but the caller should schedule a full
// refit. A maxRatio <= 0 disables the diagnostic.
//
// Afterwards the model holds no more state than before the call (at most
// foldStateCap values), in exactly sized slices: a model that lives
// through many generations of fold-ins keeps its fitted length, plus D
// original-scale values, and forecasts exactly as the untrimmed walk
// would.
func (m *Model) FoldIn(xs []float64, maxRatio float64) error {
	if len(xs) == 0 {
		return nil
	}
	n0, nOrig := len(m.e), len(m.orig)
	keep := min(n0, foldStateCap)
	keepOrig := min(nOrig, keep+m.D)
	for _, x := range xs {
		m.Update(x)
	}
	// Diagnose on the residuals this fold-in appended, before the state
	// trim below can swallow them — the largest fold-ins are exactly the
	// ones most likely to drift.
	err := m.foldDrift(m.e[n0:], maxRatio)
	m.trimmed += len(m.orig) - keepOrig
	m.w = tail(m.w, keep)
	m.e = tail(m.e, keep)
	m.orig = tail(m.orig, keepOrig)
	return err
}

// foldDrift runs the residual diagnostic over the innovations a fold-in
// produced.
func (m *Model) foldDrift(folded []float64, maxRatio float64) error {
	if maxRatio <= 0 || m.n == 0 || len(folded) == 0 {
		return nil
	}
	var sse float64
	for _, e := range folded {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return ErrDrift
		}
		sse += e * e
	}
	baseline := m.rss / float64(m.n)
	// Floor the baseline so a near-perfect in-sample fit (rss ~ 0) does not
	// flag ordinary noise as drift.
	if floor := 1e-9 * (1 + m.C*m.C); baseline < floor {
		baseline = floor
	}
	if sse/float64(len(folded)) > maxRatio*baseline {
		return ErrDrift
	}
	return nil
}
