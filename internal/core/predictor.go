// Package core implements the paper's contribution: the temporal (ARIMA,
// §IV), spatial (NAR neural network, §V), and spatiotemporal (model tree,
// §VI) predictors of DDoS attack behavior, together with the Always Same
// and Always Mean baselines of the §VII-A comparison.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/arima"
	"repro/internal/nn"
	"repro/internal/stats"
)

// SeriesPredictor is a one-step-ahead forecaster over a univariate series.
// Fit estimates on training history; PredictNext forecasts the next value;
// Update feeds the realized value for walk-forward evaluation.
type SeriesPredictor interface {
	Fit(train []float64) error
	PredictNext() (float64, error)
	Update(x float64)
	Name() string
}

// ErrNotFitted is returned by PredictNext before Fit.
var ErrNotFitted = errors.New("core: predictor not fitted")

// AlwaysSame predicts the previous observation (the first baseline of
// §VII-A).
type AlwaysSame struct {
	last   float64
	fitted bool
}

// Name implements SeriesPredictor.
func (p *AlwaysSame) Name() string { return "AlwaysSame" }

// Fit records the last training observation.
func (p *AlwaysSame) Fit(train []float64) error {
	if len(train) == 0 {
		return errors.New("core: AlwaysSame needs at least one observation")
	}
	p.last = train[len(train)-1]
	p.fitted = true
	return nil
}

// PredictNext returns the previous observation.
func (p *AlwaysSame) PredictNext() (float64, error) {
	if !p.fitted {
		return 0, ErrNotFitted
	}
	return p.last, nil
}

// Update records the realized value.
func (p *AlwaysSame) Update(x float64) { p.last = x }

// AlwaysMean predicts the running mean of all observations so far (the
// second baseline of §VII-A).
type AlwaysMean struct {
	sum    float64
	n      int
	fitted bool
}

// Name implements SeriesPredictor.
func (p *AlwaysMean) Name() string { return "AlwaysMean" }

// Fit accumulates the training observations.
func (p *AlwaysMean) Fit(train []float64) error {
	if len(train) == 0 {
		return errors.New("core: AlwaysMean needs at least one observation")
	}
	p.sum = stats.Sum(train)
	p.n = len(train)
	p.fitted = true
	return nil
}

// PredictNext returns the running mean.
func (p *AlwaysMean) PredictNext() (float64, error) {
	if !p.fitted {
		return 0, ErrNotFitted
	}
	return p.sum / float64(p.n), nil
}

// Update folds the realized value into the running mean.
func (p *AlwaysMean) Update(x float64) {
	p.sum += x
	p.n++
}

// ARIMAPredictor adapts the temporal model engine to SeriesPredictor with
// AIC order selection over a small grid, bounded by its fields under
// TemporalConfig's defaulting rule.
type ARIMAPredictor struct {
	MaxP, MaxD, MaxQ int
	model            *arima.Model
}

// Name implements SeriesPredictor.
func (p *ARIMAPredictor) Name() string { return "Temporal(ARIMA)" }

// Fit selects and estimates the ARIMA order on the training series.
func (p *ARIMAPredictor) Fit(train []float64) error {
	cfg := TemporalConfig{MaxP: p.MaxP, MaxD: p.MaxD, MaxQ: p.MaxQ}.withDefaults()
	m, err := arima.SelectOrder(train, cfg.MaxP, cfg.MaxD, cfg.MaxQ)
	if err != nil {
		return fmt.Errorf("core: ARIMA fit: %w", err)
	}
	p.model = m
	return nil
}

// PredictNext forecasts one step ahead.
func (p *ARIMAPredictor) PredictNext() (float64, error) {
	if p.model == nil {
		return 0, ErrNotFitted
	}
	return p.model.PredictNext()
}

// Update feeds the realized value.
func (p *ARIMAPredictor) Update(x float64) {
	if p.model != nil {
		p.model.Update(x)
	}
}

// GoodnessOfFit exposes the fitted model's Ljung–Box residual-whiteness
// test (§III-C's goodness-of-fit validation axis). It returns NaNs before
// Fit.
func (p *ARIMAPredictor) GoodnessOfFit(maxLag int) (q, pValue float64) {
	if p.model == nil {
		return math.NaN(), math.NaN()
	}
	return p.model.GoodnessOfFit(maxLag)
}

// NARPredictor adapts the spatial model engine (grid-searched nonlinear
// autoregressive network) to SeriesPredictor.
type NARPredictor struct {
	Delays []int
	Hidden []int
	Seed   uint64
	Train  nn.TrainConfig
	model  *nn.NAR
}

// Name implements SeriesPredictor.
func (p *NARPredictor) Name() string { return "Spatial(NAR)" }

// Fit grid-searches delays and hidden nodes, then trains on the series.
func (p *NARPredictor) Fit(train []float64) error {
	m, err := nn.GridSearchNAR(train, p.Delays, p.Hidden, p.Seed, p.Train)
	if err != nil {
		return fmt.Errorf("core: NAR fit: %w", err)
	}
	p.model = m
	return nil
}

// PredictNext forecasts one step ahead.
func (p *NARPredictor) PredictNext() (float64, error) {
	if p.model == nil {
		return 0, ErrNotFitted
	}
	return p.model.PredictNext(), nil
}

// Update feeds the realized value.
func (p *NARPredictor) Update(x float64) {
	if p.model != nil {
		p.model.Update(x)
	}
}

// WalkForward fits the predictor on train and produces one-step-ahead
// predictions over test, updating with each realized value — the paper's
// test-set validation protocol. It returns the predictions and their RMSE.
func WalkForward(p SeriesPredictor, train, test []float64) (preds []float64, rmse float64, err error) {
	if err := p.Fit(train); err != nil {
		return nil, 0, err
	}
	preds = make([]float64, len(test))
	for i, x := range test {
		v, err := p.PredictNext()
		if err != nil {
			return nil, 0, err
		}
		preds[i] = v
		p.Update(x)
	}
	rmse, err = stats.RMSE(preds, test)
	if err != nil {
		return nil, 0, err
	}
	return preds, rmse, nil
}
