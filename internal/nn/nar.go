package nn

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/timeseries"
)

// NAR is a nonlinear autoregressive model (Eq. 6 of the paper):
//
//	x_{t+1} = f(x_t, x_{t-1}, ..., x_{t-q+1}) + eps
//
// where f is a 1-hidden-layer tan-sigmoid network. Inputs and outputs are
// standardized internally; predictions are returned on the original scale.
type NAR struct {
	Delays int
	net    *Network
	scaler *timeseries.Scaler
	tail   []float64 // last Delays observations, standardized
}

// NARConfig configures NAR training.
type NARConfig struct {
	Delays int        // number of past values fed to the network (q). Default 4.
	Hidden int        // hidden nodes. Default 6.
	Act    Activation // hidden transfer function. Default tan-sigmoid.
	Seed   uint64
	Train  TrainConfig
}

func (c NARConfig) withDefaults() NARConfig {
	if c.Delays < 1 {
		c.Delays = 4
	}
	if c.Hidden < 1 {
		c.Hidden = 6
	}
	return c
}

// FitNAR trains a NAR model on the series xs.
func FitNAR(xs []float64, cfg NARConfig) (*NAR, error) {
	cfg = cfg.withDefaults()
	if len(xs) < cfg.Delays+2 {
		return nil, errors.New("nn: series too short for NAR delays")
	}
	net, err := NewNetwork(cfg.Delays, cfg.Hidden, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	net.Act = cfg.Act
	return trainNAR(xs, net, cfg.Delays, cfg.Train)
}

// Refit trains a new model on the whole series xs, starting from a copy
// of the receiver's weights instead of a seeded random initialisation: a
// warm start. Everything else is FitNAR's: the topology is the
// receiver's, and the scaler, lag rows and walk-forward tail come from xs.
// Unlike WarmRefit, which trains only on the rows of new observations,
// Refit re-estimates the network on every row of xs. The receiver is
// never mutated.
func (m *NAR) Refit(xs []float64, train TrainConfig) (*NAR, error) {
	if len(xs) < m.Delays+2 {
		return nil, errors.New("nn: series too short for NAR delays")
	}
	return trainNAR(xs, m.net.Clone(), m.Delays, train)
}

// trainNAR standardizes xs, trains net on its lag rows and returns the
// model holding net.
func trainNAR(xs []float64, net *Network, delays int, train TrainConfig) (*NAR, error) {
	scaler := timeseries.FitScaler(xs)
	z := scaler.Transform(xs)
	rows, ys, err := timeseries.LagMatrix(z, delays)
	if err != nil {
		return nil, err
	}
	if _, err := net.Train(rows, ys, &train); err != nil {
		return nil, err
	}
	m := &NAR{Delays: delays, net: net, scaler: scaler}
	m.tail = append(m.tail, z[len(z)-delays:]...)
	return m, nil
}

// HiddenNodes returns the width of the network's hidden layer (the other
// half of the grid-searched topology next to Delays). Serving-layer
// registries expose it as a model descriptor.
func (m *NAR) HiddenNodes() int {
	if m.net == nil {
		return 0
	}
	return m.net.Hidden
}

// PredictNext returns the one-step-ahead forecast on the original scale.
func (m *NAR) PredictNext() float64 {
	x := m.lagInput()
	return m.scaler.Invert(m.net.Predict(x))
}

// Forecast returns h-step-ahead forecasts by feeding predictions back as
// inputs.
func (m *NAR) Forecast(h int) []float64 {
	tail := append([]float64(nil), m.tail...)
	out := make([]float64, h)
	for s := 0; s < h; s++ {
		x := lagFromTail(tail, m.Delays)
		z := m.net.Predict(x)
		out[s] = m.scaler.Invert(z)
		tail = append(tail, z)
	}
	return out
}

// Update appends an observed value (original scale) to the model state for
// walk-forward evaluation. Coefficients are not re-estimated.
func (m *NAR) Update(x float64) {
	m.tail = append(m.tail, m.scaler.Apply(x))
	if len(m.tail) > m.Delays {
		m.tail = m.tail[len(m.tail)-m.Delays:]
	}
}

func (m *NAR) lagInput() []float64 {
	return lagFromTail(m.tail, m.Delays)
}

// lagFromTail builds the network input [x_t, x_{t-1}, ...] from the last
// Delays entries of tail (most recent first). The tail must hold at least
// delays values: FitNAR seeds it with exactly Delays observations and
// Update/Forecast only grow it, so a shorter tail means corrupted state.
// Silently zero-padding here would feed the network standardized zeros —
// i.e. phantom mean-valued observations — and skew every forecast, so the
// invariant is enforced loudly instead.
func lagFromTail(tail []float64, delays int) []float64 {
	if len(tail) < delays {
		panic(fmt.Sprintf("nn: NAR tail has %d values, need %d delays", len(tail), delays))
	}
	x := make([]float64, delays)
	for j := 0; j < delays; j++ {
		x[j] = tail[len(tail)-1-j]
	}
	return x
}

// GridSearchNAR tunes the number of delays and hidden nodes by validation
// MSE on the final portion of the series (the paper tunes both per dataset
// with a grid search, §V-A). It returns the model refitted on the full
// series with the winning configuration.
func GridSearchNAR(xs []float64, delays, hidden []int, seed uint64, train TrainConfig) (*NAR, error) {
	cfg, err := selectNARConfig(xs, delays, hidden, seed, train)
	if err != nil {
		return nil, err
	}
	return FitNAR(xs, cfg)
}

// selectNARConfig runs the delays×hidden grid and returns the winning
// configuration. Every candidate is fitted on the parallel worker pool —
// each fit is seeded per-config and therefore deterministic regardless of
// scheduling — and the winner is reduced from the validation MSEs in grid
// order (delays outer, hidden inner) with a strict comparison, so the
// parallel search picks exactly the configuration the serial loop would.
func selectNARConfig(xs []float64, delays, hidden []int, seed uint64, train TrainConfig) (NARConfig, error) {
	if len(delays) == 0 {
		delays = []int{2, 4, 8}
	}
	if len(hidden) == 0 {
		hidden = []int{4, 8}
	}
	trainPart, valPart := timeseries.SplitFrac(xs, 0.8)
	grid := make([]NARConfig, 0, len(delays)*len(hidden))
	for _, d := range delays {
		for _, h := range hidden {
			grid = append(grid, NARConfig{Delays: d, Hidden: h, Seed: seed, Train: train})
		}
	}
	// Infeasible configurations score +Inf rather than erroring, so Map
	// never fails here.
	mses, _ := parallel.Map(len(grid), 0, func(i int) (float64, error) {
		m, err := FitNAR(trainPart, grid[i])
		if err != nil {
			return math.Inf(1), nil
		}
		return walkForwardMSE(m, valPart), nil
	})
	bestMSE := math.Inf(1)
	best := -1
	for i, mse := range mses {
		if mse < bestMSE {
			bestMSE = mse
			best = i
		}
	}
	if best < 0 {
		return NARConfig{}, errors.New("nn: grid search found no feasible configuration")
	}
	return grid[best], nil
}

func walkForwardMSE(m *NAR, test []float64) float64 {
	if len(test) == 0 {
		return math.Inf(1)
	}
	var sse float64
	for _, x := range test {
		p := m.PredictNext()
		d := p - x
		sse += d * d
		m.Update(x)
	}
	return sse / float64(len(test))
}
