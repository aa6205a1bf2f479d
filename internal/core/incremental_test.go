package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/astopo"
)

func TestIncrementalTemporalTracksFullRefit(t *testing.T) {
	attacks := mkTestAttacks(160, "F", 5)
	prefix, tail := attacks[:140], attacks[140:]

	prev, err := FitTemporal("F", prefix, TemporalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := IncrementalTemporal(prev, tail, 6)
	if err != nil {
		t.Fatalf("IncrementalTemporal on a stationary continuation: %v", err)
	}
	full, err := FitTemporal("F", attacks, TemporalConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// The previous generation must stay untouched (its lastStart still
	// points at the prefix).
	if !prev.PredictNextStart().Before(inc.PredictNextStart()) {
		t.Fatalf("fold-in mutated or failed to advance lastStart")
	}
	// Forecast drift vs the full refit stays bounded on every measure.
	if d := relDiff(inc.PredictMagnitude(), full.PredictMagnitude()); d > 0.35 {
		t.Fatalf("magnitude drift %.3f (inc %v vs full %v)", d, inc.PredictMagnitude(), full.PredictMagnitude())
	}
	if d := math.Abs(inc.PredictHour() - full.PredictHour()); d > 6 {
		t.Fatalf("hour drift %v (inc %v vs full %v)", d, inc.PredictHour(), full.PredictHour())
	}
	if d := relDiff(inc.PredictInterval(), full.PredictInterval()); d > 0.5 {
		t.Fatalf("interval drift %.3f (inc %v vs full %v)", d, inc.PredictInterval(), full.PredictInterval())
	}
}

func TestIncrementalTemporalFlagsRegimeChange(t *testing.T) {
	attacks := mkTestAttacks(140, "F", 11)
	prev, err := FitTemporal("F", attacks, TemporalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A magnitude regime two orders above the fitted one must abort the
	// incremental path.
	tail := mkTestAttacks(24, "F", 12)
	last := attacks[len(attacks)-1].Start
	for i := range tail {
		tail[i].Start = last.Add(time.Duration(i+1) * 6 * time.Hour)
		tail[i].Bots = make([]astopo.IPv4, 5000+i)
	}
	if _, err := IncrementalTemporal(prev, tail, 4); err == nil {
		t.Fatalf("IncrementalTemporal accepted a magnitude regime change")
	}
}

func TestIncrementalSpatialTracksFullRefit(t *testing.T) {
	attacks := mkTestAttacks(120, "F", 21)
	prefix, tail := attacks[:100], attacks[100:]
	cfg := SpatialConfig{Delays: []int{2}, Hidden: []int{3}, Seed: 9}

	prev, err := FitSpatial(7, prefix, cfg, SpatialTopology{}, SpatialStart{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := IncrementalSpatial(prev, tail, 40, 6)
	if err != nil {
		t.Fatalf("IncrementalSpatial on a stationary continuation: %v", err)
	}
	full, err := FitSpatial(7, attacks, cfg, SpatialTopology{}, SpatialStart{})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(inc.PredictDuration(), full.PredictDuration()); d > 0.5 {
		t.Fatalf("duration drift %.3f (inc %v vs full %v)", d, inc.PredictDuration(), full.PredictDuration())
	}
	if h := inc.PredictHour(); h < 0 || h >= 24 {
		t.Fatalf("hour prediction %v out of range", h)
	}
	if d := inc.PredictDay(); d < 1 || d > 31 {
		t.Fatalf("day prediction %v out of range", d)
	}
}

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (math.Abs(b) + 1)
}
