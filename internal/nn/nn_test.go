package nn

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(0, 3, 1); err == nil {
		t.Error("in=0 should error")
	}
	if _, err := NewNetwork(3, 0, 1); err == nil {
		t.Error("hidden=0 should error")
	}
	n, err := NewNetwork(2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.In != 2 || n.Hidden != 4 || len(n.W1) != 4 || len(n.W1[0]) != 2 {
		t.Errorf("topology wrong: %+v", n)
	}
}

func TestNetworkDeterministicInit(t *testing.T) {
	a, _ := NewNetwork(3, 5, 99)
	b, _ := NewNetwork(3, 5, 99)
	for h := range a.W1 {
		for i := range a.W1[h] {
			if a.W1[h][i] != b.W1[h][i] {
				t.Fatal("same seed should give identical weights")
			}
		}
	}
}

func TestTrainLearnsLinearFunction(t *testing.T) {
	// y = 0.5 x0 - 0.3 x1 is easily representable.
	rng := rand.New(rand.NewPCG(31, 32))
	n := 200
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		xs[i] = x
		ys[i] = 0.5*x[0] - 0.3*x[1]
	}
	net, _ := NewNetwork(2, 6, 7)
	mse, err := net.Train(xs, ys, &TrainConfig{Epochs: 500})
	if err != nil {
		t.Fatal(err)
	}
	if mse > 0.01 {
		t.Errorf("final MSE = %v, want < 0.01", mse)
	}
}

func TestTrainLearnsNonlinearFunction(t *testing.T) {
	// y = tanh(2 x) is exactly representable by one hidden unit.
	n := 100
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := -2 + 4*float64(i)/float64(n-1)
		xs[i] = []float64{x}
		ys[i] = math.Tanh(2 * x)
	}
	net, _ := NewNetwork(1, 4, 3)
	mse, err := net.Train(xs, ys, &TrainConfig{Epochs: 800})
	if err != nil {
		t.Fatal(err)
	}
	if mse > 0.005 {
		t.Errorf("nonlinear MSE = %v, want < 0.005", mse)
	}
	// XOR-like interaction: y = x0*x1 on {-1,1}^2.
	xor := [][]float64{{-1, -1}, {-1, 1}, {1, -1}, {1, 1}}
	yXor := []float64{1, -1, -1, 1}
	net2, _ := NewNetwork(2, 8, 5)
	mse2, err := net2.Train(xor, yXor, &TrainConfig{Epochs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if mse2 > 0.05 {
		t.Errorf("XOR MSE = %v — the net failed to learn an interaction", mse2)
	}
}

func TestTrainErrors(t *testing.T) {
	net, _ := NewNetwork(1, 2, 1)
	if _, err := net.Train(nil, nil, nil); err == nil {
		t.Error("no data should error")
	}
	if _, err := net.Train([][]float64{{1}}, []float64{1, 2}, nil); err == nil {
		t.Error("mismatched lengths should error")
	}
	// Every row must hold exactly In values: Predict zero-pads a short
	// input, but training on one would fit phantom zeros.
	net2, _ := NewNetwork(2, 2, 1)
	for _, rows := range [][][]float64{{{1, 2}, {3}}, {{1, 2}, {3, 4, 5}}} {
		if _, err := net2.Train(rows, []float64{1, 2}, nil); err == nil {
			t.Errorf("rows %v with In=2 should error", rows)
		}
	}
}

func TestPredictZeroPadsShortInput(t *testing.T) {
	net, _ := NewNetwork(3, 2, 1)
	a := net.Predict([]float64{1, 2})
	b := net.Predict([]float64{1, 2, 0})
	if a != b {
		t.Errorf("short input should be zero-padded: %v vs %v", a, b)
	}
}

func TestFitNARAndForecast(t *testing.T) {
	// A noiseless sine is strongly predictable by a NAR model.
	n := 300
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 20)
	}
	m, err := FitNAR(xs, NARConfig{Delays: 6, Hidden: 8, Seed: 1, Train: TrainConfig{Epochs: 600}})
	if err != nil {
		t.Fatal(err)
	}
	p := m.PredictNext()
	want := math.Sin(2 * math.Pi * float64(n) / 20)
	if math.Abs(p-want) > 0.15 {
		t.Errorf("next = %v, want ~%v", p, want)
	}
	f := m.Forecast(10)
	if len(f) != 10 {
		t.Fatalf("forecast len = %d", len(f))
	}
	for i, v := range f {
		want := math.Sin(2 * math.Pi * float64(n+i) / 20)
		if math.Abs(v-want) > 0.5 {
			t.Errorf("h=%d forecast %v, want ~%v", i+1, v, want)
		}
	}
}

func TestNARUpdateWalkForward(t *testing.T) {
	n := 400
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 5 + 2*math.Sin(2*math.Pi*float64(i)/24)
	}
	m, err := FitNAR(xs[:300], NARConfig{Delays: 6, Hidden: 8, Seed: 2, Train: TrainConfig{Epochs: 500}})
	if err != nil {
		t.Fatal(err)
	}
	var sse float64
	for _, x := range xs[300:] {
		p := m.PredictNext()
		sse += (p - x) * (p - x)
		m.Update(x)
	}
	rmse := math.Sqrt(sse / 100)
	if rmse > 0.5 {
		t.Errorf("walk-forward RMSE = %v, want < 0.5", rmse)
	}
}

func TestFitNARTooShort(t *testing.T) {
	if _, err := FitNAR([]float64{1, 2, 3}, NARConfig{Delays: 5}); err == nil {
		t.Error("short series should error")
	}
}

func TestNARDefaults(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i % 7)
	}
	m, err := FitNAR(xs, NARConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Delays != 4 {
		t.Errorf("default delays = %d, want 4", m.Delays)
	}
}

func TestGridSearchNAR(t *testing.T) {
	n := 260
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2*math.Pi*float64(i)/12) + 0.05*math.Cos(float64(i))
	}
	m, err := GridSearchNAR(xs, []int{2, 6}, []int{3, 8}, 4, TrainConfig{Epochs: 300})
	if err != nil {
		t.Fatal(err)
	}
	// The chosen model must predict the continuation decently.
	p := m.PredictNext()
	want := math.Sin(2 * math.Pi * float64(n) / 12)
	if math.Abs(p-want) > 0.6 {
		t.Errorf("grid-searched prediction %v, want ~%v", p, want)
	}
	if _, err := GridSearchNAR([]float64{1, 2}, nil, nil, 1, TrainConfig{}); err == nil {
		t.Error("infeasible grid should error")
	}
}

func TestLagFromTailPanicsOnShortTail(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("lagFromTail on a short tail should panic, not zero-pad")
		}
	}()
	lagFromTail([]float64{1, 2}, 3)
}

func TestLagFromTailOrder(t *testing.T) {
	// Most recent observation first, exactly Delays values.
	got := lagFromTail([]float64{10, 20, 30, 40}, 3)
	want := []float64{40, 30, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lagFromTail = %v, want %v", got, want)
		}
	}
}

func TestSelectNARConfigParallelMatchesSerial(t *testing.T) {
	n := 240
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2*math.Pi*float64(i)/16) + 0.1*math.Cos(float64(3*i))
	}
	delays := []int{2, 4, 6}
	hidden := []int{3, 5, 8}
	train := TrainConfig{Epochs: 200}

	serial := func() NARConfig {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		cfg, err := selectNARConfig(xs, delays, hidden, 7, train)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}()
	par, err := selectNARConfig(xs, delays, hidden, 7, train)
	if err != nil {
		t.Fatal(err)
	}
	if par != serial {
		t.Fatalf("parallel grid chose %+v, serial chose %+v", par, serial)
	}
}
