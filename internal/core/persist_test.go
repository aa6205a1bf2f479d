package core

import (
	"encoding/json"
	"math"
	"testing"
)

func TestTemporalJSONRoundTrip(t *testing.T) {
	attacks := mkTestAttacks(150, "F", 71)
	m, err := FitTemporal("F", attacks, TemporalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Temporal
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Family != "F" {
		t.Error("family lost")
	}
	// A reloaded model must predict identically.
	pairs := [][2]float64{
		{m.PredictMagnitude(), back.PredictMagnitude()},
		{m.PredictHour(), back.PredictHour()},
		{m.PredictDay(), back.PredictDay()},
		{m.PredictInterval(), back.PredictInterval()},
	}
	for i, p := range pairs {
		if math.Abs(p[0]-p[1]) > 1e-9 {
			t.Errorf("prediction %d differs after round trip: %v vs %v", i, p[0], p[1])
		}
	}
	if !m.PredictNextStart().Equal(back.PredictNextStart()) {
		t.Error("next-start prediction differs")
	}
	// And keep behaving identically under walk-forward updates.
	a := attacks[len(attacks)-1]
	m.Observe(&a)
	back.Observe(&a)
	if math.Abs(m.PredictMagnitude()-back.PredictMagnitude()) > 1e-9 {
		t.Error("post-observe predictions diverge")
	}
}

func TestSpatialJSONRoundTrip(t *testing.T) {
	attacks := mkTestAttacks(100, "F", 73)
	m, err := FitSpatial(7, attacks, SpatialConfig{Seed: 5}, SpatialTopology{}, SpatialStart{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Spatial
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.AS != 7 {
		t.Error("AS lost")
	}
	if math.Abs(m.PredictDuration()-back.PredictDuration()) > 1e-9 {
		t.Error("duration prediction differs")
	}
	if math.Abs(m.PredictHour()-back.PredictHour()) > 1e-9 {
		t.Error("hour prediction differs")
	}
}

func TestSpatiotemporalJSONRoundTrip(t *testing.T) {
	samples := stSamples(200, 75)
	st, err := FitSpatiotemporal(samples, STConfig{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back Spatiotemporal
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[:20] {
		if math.Abs(st.PredictHour(&s.F)-back.PredictHour(&s.F)) > 1e-9 {
			t.Fatal("hour tree predictions differ after round trip")
		}
		if math.Abs(st.PredictDuration(&s.F)-back.PredictDuration(&s.F)) > 1e-9 {
			t.Fatal("duration tree predictions differ after round trip")
		}
	}
}

func TestTemporalUnmarshalRejectsMissingParts(t *testing.T) {
	var m Temporal
	if err := json.Unmarshal([]byte(`{"family":"x"}`), &m); err == nil {
		t.Error("missing series models should error")
	}
	if err := json.Unmarshal([]byte(`{bad`), &m); err == nil {
		t.Error("bad JSON should error")
	}
}

func TestSpatialUnmarshalRejectsMissingParts(t *testing.T) {
	var m Spatial
	if err := json.Unmarshal([]byte(`{"as":7}`), &m); err == nil {
		t.Error("missing series models should error")
	}
}
