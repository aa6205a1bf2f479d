package core

import (
	"errors"

	"repro/internal/astopo"
	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Spatial is the paper's spatial model (§V): per target network (AS), a
// nonlinear autoregressive neural network over the chronologically ordered
// attacks observed in that network — their durations, launch hours, and
// days. Series too short for the NAR fall back to the training mean.
type Spatial struct {
	AS astopo.AS

	duration *narModel
	hour     *narModel
	day      *narModel
}

// SpatialConfig controls the NAR grid search (§V-A tunes the number of
// delays and hidden nodes per dataset).
type SpatialConfig struct {
	Delays []int
	Hidden []int
	Seed   uint64
	Train  nn.TrainConfig
}

func (c SpatialConfig) withDefaults() SpatialConfig {
	if len(c.Delays) == 0 {
		c.Delays = []int{2, 4}
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{4, 8}
	}
	if c.Train.Epochs == 0 {
		c.Train.Epochs = 250
	}
	return c
}

// Topology is one NAR series' network shape: its number of delays and
// hidden nodes. The zero value means "not chosen yet": FitSpatial runs the
// delays×hidden grid search for that series.
type Topology struct {
	Delays int
	Hidden int
}

// SpatialTopology holds one Topology per spatial series. The zero value
// grid-searches every series, which is what the offline evaluation does.
type SpatialTopology struct {
	Duration, Hour, Day Topology
}

// SpatialStart holds, per series, the trained network a fit starts from
// instead of a seeded random initialisation, and the epochs it trains from
// there: Epochs, or the config's epochs when those are fewer or Epochs is
// zero, so a warm start never trains longer than a cold one. A nil
// series, or one whose network has another topology than the series is
// fitted with, trains cold. The zero value trains every series cold.
type SpatialStart struct {
	Duration, Hour, Day *nn.NAR
	Epochs              int
}

// narModel is a NAR with a mean fallback for short series.
type narModel struct {
	m    *nn.NAR
	mean float64
	n    int
}

// fitNARSeries fits one series: with a zero topology it grid-searches,
// with a given one and a from network of that topology it retrains a copy
// of from (SpatialStart's epochs), and otherwise it trains that single
// network with the seed and call the grid's final fit would use, so a
// carried topology equal to the grid's choice yields the same model.
func fitNARSeries(xs []float64, cfg SpatialConfig, topo Topology, seedOffset uint64, from *nn.NAR, epochs int) *narModel {
	nm := &narModel{mean: stats.Mean(xs), n: len(xs)}
	if len(xs) < 12 {
		return nm
	}
	var m *nn.NAR
	var err error
	switch {
	case topo == (Topology{}):
		m, err = nn.GridSearchNAR(xs, cfg.Delays, cfg.Hidden, cfg.Seed+seedOffset, cfg.Train)
	case from != nil && from.Delays == topo.Delays && from.HiddenNodes() == topo.Hidden:
		train := cfg.Train
		if epochs > 0 && epochs < train.Epochs {
			train.Epochs = epochs
		}
		m, err = from.Refit(xs, train)
	default:
		m, err = nn.FitNAR(xs, nn.NARConfig{Delays: topo.Delays, Hidden: topo.Hidden, Seed: cfg.Seed + seedOffset, Train: cfg.Train})
	}
	if err == nil {
		nm.m = m
	}
	return nm
}

// net returns the series' network, nil for the mean fallback.
func (nm *narModel) net() *nn.NAR {
	if nm == nil {
		return nil
	}
	return nm.m
}

// topology reports the series' network shape, zero for the mean fallback.
func (nm *narModel) topology() Topology {
	if nm == nil || nm.m == nil {
		return Topology{}
	}
	return Topology{Delays: nm.m.Delays, Hidden: nm.m.HiddenNodes()}
}

func (nm *narModel) predict() float64 {
	if nm == nil || nm.n == 0 {
		return 0
	}
	if nm.m != nil {
		return nm.m.PredictNext()
	}
	return nm.mean
}

func (nm *narModel) update(x float64) {
	if nm == nil {
		return
	}
	nm.mean = (nm.mean*float64(nm.n) + x) / float64(nm.n+1)
	nm.n++
	if nm.m != nil {
		nm.m.Update(x)
	}
}

// FitSpatial estimates the spatial model on the chronological attacks
// targeting one AS. Each series grid-searches its topology when topo leaves
// it zero and trains one network with the given topology otherwise: from
// a copy of start's network for the series when that has the topology (a
// warm start), and from a seeded random initialisation when not. The
// start networks are never mutated.
func FitSpatial(as astopo.AS, attacks []trace.Attack, cfg SpatialConfig, topo SpatialTopology, start SpatialStart) (*Spatial, error) {
	if len(attacks) < 3 {
		return nil, errors.New("core: spatial model needs at least 3 attacks")
	}
	cfg = cfg.withDefaults()
	durs := make([]float64, len(attacks))
	hours := make([]float64, len(attacks))
	days := make([]float64, len(attacks))
	for i := range attacks {
		durs[i] = attacks[i].DurationSec
		hours[i] = float64(attacks[i].Hour())
		days[i] = float64(attacks[i].Day())
	}
	return &Spatial{
		AS:       as,
		duration: fitNARSeries(durs, cfg, topo.Duration, 1, start.Duration, start.Epochs),
		hour:     fitNARSeries(hours, cfg, topo.Hour, 2, start.Hour, start.Epochs),
		day:      fitNARSeries(days, cfg, topo.Day, 3, start.Day, start.Epochs),
	}, nil
}

// Start returns the model's networks as a warm start that trains epochs.
// A series that fell back to its mean has no network there.
func (s *Spatial) Start(epochs int) SpatialStart {
	return SpatialStart{Duration: s.duration.net(), Hour: s.hour.net(), Day: s.day.net(), Epochs: epochs}
}

// Topology returns each series' fitted network shape; a series that fell
// back to its mean reports a zero Topology.
func (s *Spatial) Topology() SpatialTopology {
	return SpatialTopology{
		Duration: s.duration.topology(),
		Hour:     s.hour.topology(),
		Day:      s.day.topology(),
	}
}

// PredictDuration forecasts the next attack's duration in seconds (Eq. 6),
// floored at zero.
func (s *Spatial) PredictDuration() float64 {
	v := s.duration.predict()
	if v < 0 {
		return 0
	}
	return v
}

// PredictHour forecasts the next attack's launch hour in this network,
// clamped to [0, 24).
func (s *Spatial) PredictHour() float64 { return clamp(s.hour.predict(), 0, 23.999) }

// PredictDay forecasts the next attack's day of month, clamped to [1, 31].
func (s *Spatial) PredictDay() float64 { return clamp(s.day.predict(), 1, 31) }

// Observe feeds a newly observed attack on this network (walk-forward).
func (s *Spatial) Observe(a *trace.Attack) {
	s.duration.update(a.DurationSec)
	s.hour.update(float64(a.Hour()))
	s.day.update(float64(a.Day()))
}
