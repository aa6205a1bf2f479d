package core

import (
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/trace"
)

func TestWalkStepContext(t *testing.T) {
	var c ContextTracker
	if got := c.Context(); got != (STContext{}) {
		t.Fatalf("empty tracker context %+v, want zero", got)
	}
	t0 := time.Date(2012, 8, 1, 22, 0, 0, 0, time.UTC)
	attacks := []trace.Attack{
		{Start: t0, Bots: make([]astopo.IPv4, 3)},
		{Start: t0.Add(4 * time.Hour), Bots: make([]astopo.IPv4, 5)},
		{Start: t0.Add(4 * time.Hour), Bots: make([]astopo.IPv4, 7)}, // zero gap
	}
	for i := range attacks {
		c.Observe(&attacks[i])
	}
	got := c.Context()
	want := STContext{
		PrevHour:   2,
		PrevDay:    2,
		PrevGapSec: 4 * 3600, // the zero gap is not a revisit
		NextDueDay: 2,        // 02:00 plus the 4 h gap EMA
		AvgMag:     5,
	}
	if got != want {
		t.Fatalf("context %+v, want %+v", got, want)
	}
	if ContextOf(attacks) != want {
		t.Fatalf("ContextOf %+v, want %+v", ContextOf(attacks), want)
	}
	next := trace.Attack{Start: t0.Add(28 * time.Hour)}
	c.Observe(&next)
	if got := c.Context(); got.PrevGapSec != 24*3600 || got.NextDueDay != 3 {
		t.Fatalf("after a 24 h gap: %+v, want PrevGapSec 86400 and NextDueDay 3 (EMA 14 h)", got)
	}
}

func TestWalkStepRowIgnoresLabel(t *testing.T) {
	attacks := mkTestAttacks(120, "F", 13)
	hist, label := attacks[:100], attacks[100]
	fit := func() (*Temporal, *Spatial, *ContextTracker) {
		tm, err := FitTemporal("F", hist, TemporalConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sm, err := FitSpatial(7, hist, SpatialConfig{Seed: 5}, SpatialTopology{}, SpatialStart{})
		if err != nil {
			t.Fatal(err)
		}
		var c ContextTracker
		for i := range hist {
			c.Observe(&hist[i])
		}
		return tm, sm, &c
	}
	tm, sm, c := fit()
	want := STRow(tm, sm, c.Context(), 7)
	s := WalkStep(tm, sm, c, 7, &label)
	if s.F != want {
		t.Fatalf("walk row %+v, want the row built before the step %+v", s.F, want)
	}
	if s.Hour != float64(label.Hour()) || s.Day != float64(label.Day()) ||
		s.Dur != label.DurationSec || s.Mag != float64(label.Magnitude()) {
		t.Fatalf("labels %+v do not match the attack", s)
	}
	if c.Context().PrevHour != float64(label.Hour()) {
		t.Fatal("the step did not observe its attack into the context")
	}

	perturbed := label
	perturbed.Start = label.Start.Add(5 * time.Hour)
	perturbed.DurationSec *= 4
	perturbed.Bots = perturbed.Bots[:1]
	tm, sm, c = fit()
	if got := WalkStep(tm, sm, c, 7, &perturbed).F; got != want {
		t.Fatalf("perturbing the label changed its row:\n got %+v\nwant %+v", got, want)
	}
}
