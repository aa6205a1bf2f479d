package core

import (
	"errors"

	"repro/internal/trace"
)

// ErrNoTail is returned by the incremental constructors when there is
// nothing to fold in or no previous generation to fold into.
var ErrNoTail = errors.New("core: incremental refit needs a previous model and a non-empty tail")

// SeriesError names the series whose fold-in failed in an incremental
// refit; Err is the fold-in's error (arima.ErrDrift or nn.ErrDrift when
// the drift diagnostic fired).
type SeriesError struct {
	Series string // temporal: magnitude, hour, day, interval; spatial: duration, hour, day
	Err    error
}

func (e *SeriesError) Error() string { return "core: " + e.Series + " series: " + e.Err.Error() }

func (e *SeriesError) Unwrap() error { return e.Err }

// foldIn returns a copy of the series model advanced over the new values:
// the running mean absorbs them and the ARIMA state folds them in without
// re-estimation. A drift diagnostic failure aborts the incremental path.
func (sm *seriesModel) foldIn(xs []float64, driftRatio float64) (*seriesModel, error) {
	if sm == nil {
		return nil, nil
	}
	c := &seriesModel{m: sm.m.Clone(), mean: sm.mean, n: sm.n}
	for _, x := range xs {
		c.mean = (c.mean*float64(c.n) + x) / float64(c.n+1)
		c.n++
	}
	if c.m != nil {
		if err := c.m.FoldIn(xs, driftRatio); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// foldIn returns a copy of the NAR series model advanced over the new
// values via a warm-started re-train on only the new lag rows.
func (nm *narModel) foldIn(xs []float64, epochs int, driftRatio float64) (*narModel, error) {
	if nm == nil {
		return nil, nil
	}
	c := &narModel{mean: nm.mean, n: nm.n}
	for _, x := range xs {
		c.mean = (c.mean*float64(c.n) + x) / float64(c.n+1)
		c.n++
	}
	if nm.m != nil {
		warm, err := nm.m.WarmRefit(xs, epochs, driftRatio)
		if err != nil {
			return nil, err
		}
		c.m = warm
	}
	return c, nil
}

// IncrementalTemporal folds the newly observed attacks into a copy of the
// previous generation's temporal model: running means absorb the tail and
// each ARIMA series folds it in as walk-forward updates under frozen
// coefficients — O(len(tail)) instead of a full O(window) order search.
// When any series' residual diagnostic degrades past driftRatio a
// *SeriesError naming it is returned and the caller must fall back to a
// full refit. The previous model is never mutated.
func IncrementalTemporal(prev *Temporal, tail []trace.Attack, driftRatio float64) (*Temporal, error) {
	if prev == nil || len(tail) == 0 {
		return nil, ErrNoTail
	}
	mags := make([]float64, len(tail))
	hours := make([]float64, len(tail))
	days := make([]float64, len(tail))
	for i := range tail {
		mags[i] = float64(tail[i].Magnitude())
		hours[i] = float64(tail[i].Hour())
		days[i] = float64(tail[i].Day())
	}
	intervals := make([]float64, 0, len(tail))
	last := prev.lastStart
	for i := range tail {
		if !last.IsZero() {
			if gap := tail[i].Start.Sub(last).Seconds(); gap >= 0 {
				intervals = append(intervals, gap)
			}
		}
		last = tail[i].Start
	}

	t := &Temporal{Family: prev.Family, lastStart: last}
	var err error
	if t.magnitude, err = prev.magnitude.foldIn(mags, driftRatio); err != nil {
		return nil, &SeriesError{Series: "magnitude", Err: err}
	}
	if t.hour, err = prev.hour.foldIn(hours, driftRatio); err != nil {
		return nil, &SeriesError{Series: "hour", Err: err}
	}
	if t.day, err = prev.day.foldIn(days, driftRatio); err != nil {
		return nil, &SeriesError{Series: "day", Err: err}
	}
	if t.interval, err = prev.interval.foldIn(intervals, driftRatio); err != nil {
		return nil, &SeriesError{Series: "interval", Err: err}
	}
	return t, nil
}

// IncrementalSpatial folds the newly observed attacks into a copy of the
// previous generation's spatial model: the grid-searched NAR topologies
// and scalers are kept and each network is warm re-trained on only the new
// lag rows — O(len(tail)·epochs) instead of a full delays×hidden grid
// search over the window. A drift diagnostic failure on any series
// returns a *SeriesError naming it, signalling the caller to fall back to
// a full refit. The previous model is never mutated.
func IncrementalSpatial(prev *Spatial, tail []trace.Attack, epochs int, driftRatio float64) (*Spatial, error) {
	if prev == nil || len(tail) == 0 {
		return nil, ErrNoTail
	}
	durs := make([]float64, len(tail))
	hours := make([]float64, len(tail))
	days := make([]float64, len(tail))
	for i := range tail {
		durs[i] = tail[i].DurationSec
		hours[i] = float64(tail[i].Hour())
		days[i] = float64(tail[i].Day())
	}
	s := &Spatial{AS: prev.AS}
	var err error
	if s.duration, err = prev.duration.foldIn(durs, epochs, driftRatio); err != nil {
		return nil, &SeriesError{Series: "duration", Err: err}
	}
	if s.hour, err = prev.hour.foldIn(hours, epochs, driftRatio); err != nil {
		return nil, &SeriesError{Series: "hour", Err: err}
	}
	if s.day, err = prev.day.foldIn(days, epochs, driftRatio); err != nil {
		return nil, &SeriesError{Series: "day", Err: err}
	}
	return s, nil
}
