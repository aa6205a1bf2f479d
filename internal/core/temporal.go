package core

import (
	"errors"
	"time"

	"repro/internal/arima"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Temporal is the paper's temporal model (§IV): per botnet family, ARIMA
// models over the family's chronological attack series — bot magnitude,
// launch hour, day of month, and inter-launching time. Series too short or
// degenerate for ARIMA fall back to their training mean, keeping the
// model total.
type Temporal struct {
	Family string

	magnitude *seriesModel
	hour      *seriesModel
	day       *seriesModel
	interval  *seriesModel

	lastStart time.Time
}

// TemporalConfig bounds the ARIMA order search.
type TemporalConfig struct {
	MaxP, MaxD, MaxQ int
}

// withDefaults is the one ARIMA order-defaulting rule; FitTemporal and
// ARIMAPredictor.Fit both apply it. A MaxP below 1 means 3 and a negative
// MaxD or MaxQ means 1, but a zero MaxD or MaxQ stays 0. Every caller
// passes a zero config today, so the search runs over AR(p <= 3) with
// d = q = 0.
func (c TemporalConfig) withDefaults() TemporalConfig {
	if c.MaxP < 1 {
		c.MaxP = 3
	}
	if c.MaxD < 0 {
		c.MaxD = 1
	}
	if c.MaxQ < 0 {
		c.MaxQ = 1
	}
	return c
}

// seriesModel is an ARIMA model with a mean fallback.
type seriesModel struct {
	m    *arima.Model
	mean float64
	n    int
}

func fitSeries(xs []float64, cfg TemporalConfig) *seriesModel {
	sm := &seriesModel{mean: stats.Mean(xs), n: len(xs)}
	if len(xs) >= 12 {
		if m, err := arima.SelectOrder(xs, cfg.MaxP, cfg.MaxD, cfg.MaxQ); err == nil {
			sm.m = m
		}
	}
	return sm
}

func (sm *seriesModel) predict() float64 {
	if sm == nil || sm.n == 0 {
		return 0
	}
	if sm.m != nil {
		if v, err := sm.m.PredictNext(); err == nil {
			return v
		}
	}
	return sm.mean
}

func (sm *seriesModel) update(x float64) {
	if sm == nil {
		return
	}
	sm.mean = (sm.mean*float64(sm.n) + x) / float64(sm.n+1)
	sm.n++
	if sm.m != nil {
		sm.m.Update(x)
	}
}

// FitTemporal estimates the temporal model on one family's chronological
// attacks.
func FitTemporal(family string, attacks []trace.Attack, cfg TemporalConfig) (*Temporal, error) {
	if len(attacks) < 3 {
		return nil, errors.New("core: temporal model needs at least 3 attacks")
	}
	cfg = cfg.withDefaults()
	t := &Temporal{Family: family}

	mags := make([]float64, len(attacks))
	hours := make([]float64, len(attacks))
	days := make([]float64, len(attacks))
	for i := range attacks {
		mags[i] = float64(attacks[i].Magnitude())
		hours[i] = float64(attacks[i].Hour())
		days[i] = float64(attacks[i].Day())
	}
	intervals := make([]float64, 0, len(attacks)-1)
	for i := 1; i < len(attacks); i++ {
		intervals = append(intervals, attacks[i].Start.Sub(attacks[i-1].Start).Seconds())
	}

	t.magnitude = fitSeries(mags, cfg)
	t.hour = fitSeries(hours, cfg)
	t.day = fitSeries(days, cfg)
	t.interval = fitSeries(intervals, cfg)
	t.lastStart = attacks[len(attacks)-1].Start
	return t, nil
}

// PredictMagnitude forecasts the next attack's bot magnitude.
func (t *Temporal) PredictMagnitude() float64 { return t.magnitude.predict() }

// PredictHour forecasts the next attack's launch hour, clamped to [0, 24).
func (t *Temporal) PredictHour() float64 { return clamp(t.hour.predict(), 0, 23.999) }

// PredictDay forecasts the next attack's day of month, clamped to [1, 31].
func (t *Temporal) PredictDay() float64 { return clamp(t.day.predict(), 1, 31) }

// PredictInterval forecasts the seconds until the family's next attack
// (never negative).
func (t *Temporal) PredictInterval() float64 {
	v := t.interval.predict()
	if v < 0 {
		return 0
	}
	return v
}

// PredictNextStart forecasts the next attack's start time from the last
// observed launch plus the predicted interval.
func (t *Temporal) PredictNextStart() time.Time {
	return t.lastStart.Add(time.Duration(t.PredictInterval() * float64(time.Second)))
}

// Observe feeds a newly observed attack into all series (walk-forward).
func (t *Temporal) Observe(a *trace.Attack) {
	t.magnitude.update(float64(a.Magnitude()))
	t.hour.update(float64(a.Hour()))
	t.day.update(float64(a.Day()))
	if !t.lastStart.IsZero() {
		gap := a.Start.Sub(t.lastStart).Seconds()
		if gap >= 0 {
			t.interval.update(gap)
		}
	}
	t.lastStart = a.Start
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
