package serve

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// scored is one kind's promotion window: n arrivals with magnitude and
// duration relative errors magErr and durErr (NaN: the measure is not
// scored), the first hits of which hit the timestamp.
type scored struct {
	n              int
	magErr, durErr float64
	hits           int
}

func promoWindow(kinds map[string]scored) *obs.Accuracy {
	acc := obs.NewAccuracy(obs.AccuracyConfig{Window: 64})
	for _, kind := range promoKinds() {
		acc.Model(kind)
	}
	out := obs.Outcome{Magnitude: 100, DurationSec: 100, Hour: 6, Day: 10}
	for kind, w := range kinds {
		for i := 0; i < w.n; i++ {
			p := obs.Prediction{Magnitude: 100 * (1 + w.magErr), DurationSec: 100 * (1 + w.durErr), Hour: 6, Day: 10}
			if i >= w.hits {
				p.Hour = 18
			}
			acc.Score(kind, p, out)
		}
	}
	return acc
}

// TestPromotionDecisions pins decideChampions' contest rules, one measure
// at a time: the challenger must beat the incumbent by PromoMargin
// (relative for the error measures, absolute for the hit rate) over at
// least PromoMinSamples arrivals, an unscored incumbent yields to any
// sampled challenger, ties go to the first kind in measureSpecs order,
// and a recorded champion this build does not serve reads as st.
func TestPromotionDecisions(t *testing.T) {
	cfg := Config{PromoMinSamples: 16, PromoMargin: 0.05}
	nan := math.NaN()
	// even scores every kind 1.0 on both errors and 16 of 32 hits: no
	// kind beats another.
	even := scored{n: 32, magErr: 1, durErr: 1, hits: 16}
	with := func(over map[string]scored) map[string]scored {
		out := map[string]scored{ModelST: even, ModelTemporal: even, ModelSpatial: even}
		for k, v := range over {
			out[k] = v
		}
		return out
	}
	allST := Champions{Magnitude: ModelST, Duration: ModelST, Timestamp: ModelST}
	for _, tc := range []struct {
		name   string
		prev   Champions
		acc    map[string]scored // nil: the target has no window
		want   Champions
		promos []Promotion // Measure, From and To only
	}{
		{
			name: "even window keeps the defaults",
			acc:  with(nil),
			want: allST,
		},
		{
			name: "duration challenger inside the relative margin",
			acc:  with(map[string]scored{ModelSpatial: {n: 32, magErr: 1, durErr: 0.96, hits: 16}}),
			want: allST,
		},
		{
			name:   "duration challenger past the relative margin",
			acc:    with(map[string]scored{ModelSpatial: {n: 32, magErr: 1, durErr: 0.9, hits: 16}}),
			want:   Champions{Magnitude: ModelST, Duration: ModelSpatial, Timestamp: ModelST},
			promos: []Promotion{{Measure: MeasureDuration, From: ModelST, To: ModelSpatial}},
		},
		{
			name: "magnitude margin is relative to the incumbent",
			// 0.47 is 6% under st's 0.5 but only 0.03 under it.
			acc: with(map[string]scored{
				ModelST:       {n: 32, magErr: 0.5, durErr: 1, hits: 16},
				ModelTemporal: {n: 32, magErr: 0.47, durErr: 1, hits: 16},
			}),
			want:   Champions{Magnitude: ModelTemporal, Duration: ModelST, Timestamp: ModelST},
			promos: []Promotion{{Measure: MeasureMagnitude, From: ModelST, To: ModelTemporal}},
		},
		{
			name: "magnitude challenger inside the relative margin",
			acc: with(map[string]scored{
				ModelST:       {n: 32, magErr: 0.5, durErr: 1, hits: 16},
				ModelTemporal: {n: 32, magErr: 0.49, durErr: 1, hits: 16},
			}),
			want: allST,
		},
		{
			name: "timestamp margin is absolute",
			// 17/32 beats st's 16/32 by 6% relative but only 0.031 absolute.
			acc:  with(map[string]scored{ModelSpatial: {n: 32, magErr: 1, durErr: 1, hits: 17}}),
			want: allST,
		},
		{
			name:   "timestamp challenger past the absolute margin",
			acc:    with(map[string]scored{ModelTemporal: {n: 32, magErr: 1, durErr: 1, hits: 18}}),
			want:   Champions{Magnitude: ModelST, Duration: ModelST, Timestamp: ModelTemporal},
			promos: []Promotion{{Measure: MeasureTimestamp, From: ModelST, To: ModelTemporal}},
		},
		{
			name: "challenger below PromoMinSamples",
			acc:  with(map[string]scored{ModelSpatial: {n: 15, magErr: 0.1, durErr: 0.1, hits: 15}}),
			want: allST,
		},
		{
			name: "unscored incumbent is taken over",
			// st has fewer than PromoMinSamples arrivals on every measure,
			// so any sampled challenger may take over, even a worse one.
			acc: with(map[string]scored{
				ModelST:       {n: 15, magErr: 0, durErr: 0, hits: 15},
				ModelTemporal: {n: 32, magErr: 3, durErr: nan, hits: 0},
				ModelSpatial:  {n: 32, magErr: nan, durErr: 3, hits: 0},
			}),
			want: Champions{Magnitude: ModelTemporal, Duration: ModelSpatial, Timestamp: ModelTemporal},
			promos: []Promotion{
				{Measure: MeasureMagnitude, From: ModelST, To: ModelTemporal},
				{Measure: MeasureDuration, From: ModelST, To: ModelSpatial},
				{Measure: MeasureTimestamp, From: ModelST, To: ModelTemporal},
			},
		},
		{
			name: "ties go to the first kind in order",
			// Incumbent spatial on timestamp; st and temporal tie above it.
			prev: Champions{Timestamp: ModelSpatial},
			acc: with(map[string]scored{
				ModelST:       {n: 32, magErr: 1, durErr: 1, hits: 24},
				ModelTemporal: {n: 32, magErr: 1, durErr: 1, hits: 24},
			}),
			want:   allST,
			promos: []Promotion{{Measure: MeasureTimestamp, From: ModelSpatial, To: ModelST}},
		},
		{
			name: "no window keeps the incumbents",
			prev: Champions{Magnitude: ModelTemporal, Duration: ModelSpatial, Timestamp: ModelSpatial},
			want: Champions{Magnitude: ModelTemporal, Duration: ModelSpatial, Timestamp: ModelSpatial},
		},
		{
			name: "legacy ensemble incumbent becomes st",
			prev: Champions{Magnitude: "ensemble", Duration: "ensemble", Timestamp: "ensemble"},
			want: allST,
		},
		{
			name: "legacy ensemble incumbent is judged as st",
			prev: Champions{Magnitude: "ensemble", Duration: "ensemble", Timestamp: "ensemble"},
			acc: with(map[string]scored{
				ModelSpatial: {n: 32, magErr: 1, durErr: 0.9, hits: 16},
			}),
			want:   Champions{Magnitude: ModelST, Duration: ModelSpatial, Timestamp: ModelST},
			promos: []Promotion{{Measure: MeasureDuration, From: ModelST, To: ModelSpatial}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var acc *obs.Accuracy
			if tc.acc != nil {
				acc = promoWindow(tc.acc)
			}
			got, promos := decideChampions(tc.prev, acc, 7, cfg)
			if got != tc.want {
				t.Errorf("champions %+v, want %+v", got, tc.want)
			}
			var moves []Promotion
			for _, p := range promos {
				if p.Generation != 7 || p.Reason == "" {
					t.Errorf("promotion %+v lacks generation 7 or a reason", p)
				}
				moves = append(moves, Promotion{Measure: p.Measure, From: p.From, To: p.To})
			}
			if !reflect.DeepEqual(moves, tc.promos) {
				t.Errorf("promotions %+v, want %+v", moves, tc.promos)
			}
		})
	}
}
