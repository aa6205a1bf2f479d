package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/astopo"
	"repro/internal/nn"
	"repro/internal/trace"
)

func TestAlwaysSame(t *testing.T) {
	var p AlwaysSame
	if _, err := p.PredictNext(); err == nil {
		t.Error("unfitted PredictNext should error")
	}
	if err := p.Fit(nil); err == nil {
		t.Error("empty fit should error")
	}
	if err := p.Fit([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.PredictNext(); v != 3 {
		t.Errorf("PredictNext = %v, want 3", v)
	}
	p.Update(7)
	if v, _ := p.PredictNext(); v != 7 {
		t.Errorf("after Update = %v, want 7", v)
	}
	if p.Name() != "AlwaysSame" {
		t.Error("name")
	}
}

func TestAlwaysMean(t *testing.T) {
	var p AlwaysMean
	if _, err := p.PredictNext(); err == nil {
		t.Error("unfitted PredictNext should error")
	}
	if err := p.Fit(nil); err == nil {
		t.Error("empty fit should error")
	}
	if err := p.Fit([]float64{2, 4}); err != nil {
		t.Fatal(err)
	}
	if v, _ := p.PredictNext(); v != 3 {
		t.Errorf("mean = %v, want 3", v)
	}
	p.Update(6)
	if v, _ := p.PredictNext(); v != 4 {
		t.Errorf("running mean = %v, want 4", v)
	}
	if p.Name() != "AlwaysMean" {
		t.Error("name")
	}
}

func genARSeries(n int, phi float64, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = phi*xs[i-1] + rng.NormFloat64()
	}
	return xs
}

func TestARIMAPredictorBeatsBaselinesOnAR(t *testing.T) {
	xs := genARSeries(1500, 0.8, 51)
	train, test := xs[:1200], xs[1200:]
	_, rmseModel, err := WalkForward(&ARIMAPredictor{}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	_, rmseMean, err := WalkForward(&AlwaysMean{}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if rmseModel >= rmseMean {
		t.Errorf("ARIMA %v should beat AlwaysMean %v", rmseModel, rmseMean)
	}
}

func TestARIMAPredictorErrors(t *testing.T) {
	p := &ARIMAPredictor{}
	if err := p.Fit([]float64{1}); err == nil {
		t.Error("tiny series should error")
	}
	if _, err := p.PredictNext(); err == nil {
		t.Error("unfitted predict should error")
	}
	p.Update(1) // must not panic unfitted
}

// TestARIMAOrderRuleShared pins that the temporal model's series fits and
// ARIMAPredictor select the same (p,d,q) under one defaulting rule, and
// what that rule does today: a zero MaxD or MaxQ keeps d = q = 0, even on
// a random walk or an MA(1) series, where a negative one (meaning 1) does
// not.
func TestARIMAOrderRuleShared(t *testing.T) {
	walk := genARSeries(300, 1, 7)
	ar := genARSeries(300, 0.8, 8)
	ma := make([]float64, 300)
	rng := rand.New(rand.NewPCG(9, 10))
	prev := 0.0
	for i := range ma {
		e := rng.NormFloat64()
		ma[i], prev = e+0.7*prev, e
	}
	type order struct{ p, d, q int }
	for _, tc := range []struct {
		name         string
		cfg          TemporalConfig
		xs           []float64
		wantD, wantQ int
	}{
		{"zero/walk", TemporalConfig{}, walk, 0, 0},
		{"zero/ar", TemporalConfig{}, ar, 0, 0},
		{"zero/ma", TemporalConfig{}, ma, 0, 0},
		{"negative/walk", TemporalConfig{MaxP: -1, MaxD: -1, MaxQ: -1}, walk, 1, 0},
		{"negative/ma", TemporalConfig{MaxP: -1, MaxD: -1, MaxQ: -1}, ma, 0, 1},
		{"explicit/walk", TemporalConfig{MaxP: 2, MaxD: 1, MaxQ: 1}, walk, 1, 0},
		{"explicit/ar", TemporalConfig{MaxP: 1, MaxD: 0, MaxQ: 0}, ar, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.withDefaults()
			sm := fitSeries(tc.xs, cfg)
			p := &ARIMAPredictor{MaxP: tc.cfg.MaxP, MaxD: tc.cfg.MaxD, MaxQ: tc.cfg.MaxQ}
			if err := p.Fit(tc.xs); err != nil {
				t.Fatal(err)
			}
			if sm.m == nil {
				t.Fatal("fitSeries fell back to the mean")
			}
			got := order{sm.m.P, sm.m.D, sm.m.Q}
			if pred := (order{p.model.P, p.model.D, p.model.Q}); pred != got {
				t.Fatalf("ARIMAPredictor chose %+v, fitSeries %+v", pred, got)
			}
			if got.p > cfg.MaxP || got.d != tc.wantD || got.q != tc.wantQ {
				t.Fatalf("order %+v, want p <= %d, d = %d, q = %d", got, cfg.MaxP, tc.wantD, tc.wantQ)
			}
		})
	}
}

func TestNARPredictorFitsSine(t *testing.T) {
	n := 300
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 16)
	}
	p := &NARPredictor{Seed: 3}
	_, rmse, err := WalkForward(p, xs[:250], xs[250:])
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.4 {
		t.Errorf("NAR sine walk-forward RMSE = %v", rmse)
	}
	if p.Name() != "Spatial(NAR)" {
		t.Error("name")
	}
	q := &NARPredictor{}
	if err := q.Fit([]float64{1, 2}); err == nil {
		t.Error("tiny series should error")
	}
	if _, err := q.PredictNext(); err == nil {
		t.Error("unfitted predict should error")
	}
	q.Update(1) // no panic
}

// mkTestAttacks builds a family series with a daily cadence, fixed hour
// pattern, and AR magnitudes.
func mkTestAttacks(n int, family string, seed uint64) []trace.Attack {
	rng := rand.New(rand.NewPCG(seed, seed+2))
	base := time.Date(2012, 8, 1, 0, 0, 0, 0, time.UTC)
	mag := 50.0
	out := make([]trace.Attack, n)
	for i := 0; i < n; i++ {
		mag = 50 + 0.8*(mag-50) + rng.NormFloat64()*3
		b := make([]astopo.IPv4, int(mag))
		for j := range b {
			b[j] = astopo.IPv4(10000 + j)
		}
		start := base.Add(time.Duration(i) * 6 * time.Hour).Add(time.Duration(rng.IntN(3600)) * time.Second)
		out[i] = trace.Attack{
			ID: i + 1, Family: family, Start: start,
			DurationSec: 600 + 100*rng.NormFloat64(),
			TargetIP:    1, TargetAS: 7,
			Bots: b,
		}
	}
	return out
}

func TestFitTemporalAndPredict(t *testing.T) {
	attacks := mkTestAttacks(200, "F", 9)
	m, err := FitTemporal("F", attacks, TemporalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mag := m.PredictMagnitude()
	if mag < 20 || mag > 90 {
		t.Errorf("magnitude prediction %v out of plausible range", mag)
	}
	h := m.PredictHour()
	if h < 0 || h >= 24 {
		t.Errorf("hour prediction %v out of range", h)
	}
	d := m.PredictDay()
	if d < 1 || d > 31 {
		t.Errorf("day prediction %v out of range", d)
	}
	iv := m.PredictInterval()
	if iv < 0 {
		t.Errorf("interval prediction %v negative", iv)
	}
	// Cadence is 6h; interval prediction should be in the ballpark.
	if math.Abs(iv-6*3600) > 3*3600 {
		t.Errorf("interval prediction %v, want ~21600", iv)
	}
	next := m.PredictNextStart()
	if !next.After(attacks[len(attacks)-1].Start) {
		t.Error("next start should be after the last attack")
	}
	// Observe keeps the model total and within range.
	m.Observe(&attacks[len(attacks)-1])
	if v := m.PredictHour(); v < 0 || v >= 24 {
		t.Errorf("post-observe hour %v", v)
	}
}

func TestFitTemporalTooShort(t *testing.T) {
	if _, err := FitTemporal("F", nil, TemporalConfig{}); err == nil {
		t.Error("no attacks should error")
	}
}

func TestFitTemporalShortFallsBackToMean(t *testing.T) {
	attacks := mkTestAttacks(5, "F", 11)
	m, err := FitTemporal("F", attacks, TemporalConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// With 5 attacks ARIMA is skipped; predictions equal training means.
	var magSum float64
	for i := range attacks {
		magSum += float64(attacks[i].Magnitude())
	}
	want := magSum / float64(len(attacks))
	if got := m.PredictMagnitude(); math.Abs(got-want) > 1e-9 {
		t.Errorf("fallback magnitude = %v, want mean %v", got, want)
	}
}

func TestFitSpatialAndPredict(t *testing.T) {
	attacks := mkTestAttacks(120, "F", 13)
	m, err := FitSpatial(7, attacks, SpatialConfig{Seed: 5}, SpatialTopology{})
	if err != nil {
		t.Fatal(err)
	}
	if m.AS != 7 {
		t.Error("AS not recorded")
	}
	if d := m.PredictDuration(); d < 0 || d > 5000 {
		t.Errorf("duration prediction %v implausible", d)
	}
	if h := m.PredictHour(); h < 0 || h >= 24 {
		t.Errorf("hour %v out of range", h)
	}
	if d := m.PredictDay(); d < 1 || d > 31 {
		t.Errorf("day %v out of range", d)
	}
	m.Observe(&attacks[0])
	if d := m.PredictDuration(); d < 0 {
		t.Errorf("post-observe duration %v", d)
	}
}

// TestSpatialTopologyCarriedMatchesGrid: fitting with the topology the
// grid chose trains the same networks as the grid's final fit, so a
// carried topology reproduces the searched model byte for byte; any other
// topology does not.
func TestSpatialTopologyCarriedMatchesGrid(t *testing.T) {
	attacks := mkTestAttacks(80, "F", 13)
	cfg := SpatialConfig{Delays: []int{2, 3}, Hidden: []int{3, 5}, Seed: 5, Train: nn.TrainConfig{Epochs: 30}}
	grid, err := FitSpatial(7, attacks, cfg, SpatialTopology{})
	if err != nil {
		t.Fatal(err)
	}
	topo := grid.Topology()
	for _, s := range []Topology{topo.Duration, topo.Hour, topo.Day} {
		if s == (Topology{}) {
			t.Fatalf("grid fit %+v left a series on its mean", topo)
		}
	}
	carried, err := FitSpatial(7, attacks, cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	gridJSON, _ := json.Marshal(grid)
	carriedJSON, _ := json.Marshal(carried)
	if !bytes.Equal(gridJSON, carriedJSON) {
		t.Fatalf("carried fit differs from the grid fit:\ngrid    %s\ncarried %s", gridJSON, carriedJSON)
	}
	other := topo
	other.Hour = Topology{Delays: 4, Hidden: 2}
	moved, err := FitSpatial(7, attacks, cfg, other)
	if err != nil {
		t.Fatal(err)
	}
	if got := moved.Topology(); got != other {
		t.Fatalf("fit with topology %+v reports %+v", other, got)
	}
	movedJSON, _ := json.Marshal(moved)
	if bytes.Equal(gridJSON, movedJSON) {
		t.Fatal("a different topology fitted the same model")
	}
}

func TestFitSpatialTooShort(t *testing.T) {
	if _, err := FitSpatial(7, nil, SpatialConfig{}, SpatialTopology{}); err == nil {
		t.Error("no attacks should error")
	}
}

func stSamples(n int, seed uint64) []STSample {
	rng := rand.New(rand.NewPCG(seed, seed+3))
	out := make([]STSample, n)
	for i := range out {
		prevHour := 4 + 16*rng.Float64()
		tmpHour := prevHour + rng.NormFloat64()*2
		out[i] = STSample{
			F: STFeatures{
				TmpHour:  tmpHour,
				SpaHour:  12,
				PrevHour: prevHour,
				TargetAS: float64(100 + i%5),
			},
			Hour: prevHour + rng.NormFloat64()*0.5,
			Day:  float64(1 + i%28),
			Dur:  600,
			Mag:  50,
		}
	}
	return out
}

func TestFitSpatiotemporalLearnsPrevHour(t *testing.T) {
	samples := stSamples(400, 17)
	st, err := FitSpatiotemporal(samples[:300], STConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sse float64
	for _, s := range samples[300:] {
		d := st.PredictHour(&s.F) - s.Hour
		sse += d * d
	}
	rmse := math.Sqrt(sse / 100)
	if rmse > 1.2 {
		t.Errorf("spatiotemporal hour RMSE = %v, want < 1.2 (PrevHour signal)", rmse)
	}
}

func TestFitSpatiotemporalBounds(t *testing.T) {
	samples := stSamples(100, 19)
	st, err := FitSpatiotemporal(samples, STConfig{})
	if err != nil {
		t.Fatal(err)
	}
	probe := &STFeatures{TmpHour: 1e9, PrevHour: -1e9}
	if h := st.PredictHour(probe); h < 0 || h >= 24 {
		t.Errorf("hour %v out of range", h)
	}
	if d := st.PredictDay(probe); d < 1 || d > 31 {
		t.Errorf("day %v out of range", d)
	}
	if d := st.PredictDuration(probe); d < 0 {
		t.Errorf("duration %v negative", d)
	}
	if m := st.PredictMagnitude(probe); m < 0 {
		t.Errorf("magnitude %v negative", m)
	}
}

func TestFitSpatiotemporalTooFew(t *testing.T) {
	if _, err := FitSpatiotemporal(stSamples(3, 1), STConfig{}); err == nil {
		t.Error("3 samples should error")
	}
}

func TestWalkForwardErrorPropagation(t *testing.T) {
	if _, _, err := WalkForward(&ARIMAPredictor{}, []float64{1}, []float64{2}); err == nil {
		t.Error("fit failure should propagate")
	}
	// Empty test set: RMSE over zero points errors.
	if _, _, err := WalkForward(&AlwaysSame{}, []float64{1, 2}, nil); err == nil {
		t.Error("empty test should error")
	}
}
