package nn

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// sineSeries is a smooth nonlinear-but-predictable series the NAR can
// learn well.
func sineSeries(n int, phase float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 50 + 20*math.Sin(phase+float64(i)/3)
	}
	return xs
}

func TestNetworkCloneIsDeep(t *testing.T) {
	n, err := NewNetwork(3, 4, 1)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	c := n.Clone()
	x := []float64{0.3, -0.2, 0.9}
	want := n.Predict(x)
	c.W1[0][0] = 99
	c.B1[0] = 99
	c.W2[0] = 99
	c.B2 = 99
	if got := n.Predict(x); got != want {
		t.Fatalf("original prediction changed after clone mutation: %v != %v", got, want)
	}
	if (*Network)(nil).Clone() != nil {
		t.Fatalf("nil Clone should stay nil")
	}
}

func TestIncrementalWarmRefitTracksSeries(t *testing.T) {
	xs := sineSeries(120, 0)
	m, err := FitNAR(xs[:100], NARConfig{Delays: 4, Hidden: 6, Seed: 3, Train: TrainConfig{Epochs: 200}})
	if err != nil {
		t.Fatalf("FitNAR: %v", err)
	}
	before := m.PredictNext()
	warm, err := m.WarmRefit(xs[100:], 40, 4)
	if err != nil {
		t.Fatalf("WarmRefit flagged a continuation of the same series: %v", err)
	}
	// The receiver must be untouched (published generations are immutable).
	if got := m.PredictNext(); got != before {
		t.Fatalf("WarmRefit mutated the receiver: %v != %v", got, before)
	}
	// The warm model advanced its walk-forward state and still tracks the
	// series: its one-step forecast should be close to the true next value.
	next := 50 + 20*math.Sin(float64(120)/3)
	if d := math.Abs(warm.PredictNext() - next); d > 10 {
		t.Fatalf("warm forecast %v too far from truth %v (|d|=%v)", warm.PredictNext(), next, d)
	}
}

func TestIncrementalWarmRefitFlagsRegimeChange(t *testing.T) {
	m, err := FitNAR(sineSeries(100, 0), NARConfig{Delays: 4, Hidden: 6, Seed: 3, Train: TrainConfig{Epochs: 200}})
	if err != nil {
		t.Fatalf("FitNAR: %v", err)
	}
	// A level shift far outside the fitted regime (series lives in
	// [30, 70]) must trip the frozen-weights diagnostic.
	shifted := make([]float64, 16)
	for i := range shifted {
		shifted[i] = 500 + 10*float64(i%3)
	}
	if _, err := m.WarmRefit(shifted, 40, 4); !errors.Is(err, ErrDrift) {
		t.Fatalf("WarmRefit on a regime change: got %v, want ErrDrift", err)
	}
}

// TestNARRefitStartsFromWeights: Refit is FitNAR with the receiver's
// network as the starting point, so from the network FitNAR draws it
// trains the same model bit for bit. A warm Refit keeps the topology,
// takes its scaler from the new series and never mutates the receiver.
func TestNARRefitStartsFromWeights(t *testing.T) {
	xs := sineSeries(80, 0)
	cfg := NARConfig{Delays: 3, Hidden: 4, Seed: 9, Train: TrainConfig{Epochs: 25}}
	want, err := FitNAR(xs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(cfg.Delays, cfg.Hidden, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&NAR{Delays: cfg.Delays, net: net}).Refit(xs, cfg.Train)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Refit from FitNAR's initial network differs from FitNAR")
	}

	ys := sineSeries(80, 1.5)
	before := want.Clone()
	warm, err := want.Refit(ys, TrainConfig{Epochs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, before) {
		t.Fatal("Refit mutated the receiver")
	}
	if warm.Delays != cfg.Delays || warm.HiddenNodes() != cfg.Hidden {
		t.Fatalf("warm topology %d×%d, want %d×%d", warm.Delays, warm.HiddenNodes(), cfg.Delays, cfg.Hidden)
	}
	cold, err := FitNAR(ys, NARConfig{Delays: cfg.Delays, Hidden: cfg.Hidden, Seed: cfg.Seed, Train: TrainConfig{Epochs: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.scaler, cold.scaler) || !reflect.DeepEqual(warm.tail, cold.tail) {
		t.Fatal("warm scaler or tail is not the new series'")
	}
	if reflect.DeepEqual(warm.net, cold.net) {
		t.Fatal("warm network equals a cold fit's")
	}
	if _, err := want.Refit(ys[:cfg.Delays+1], TrainConfig{}); err == nil {
		t.Fatal("Refit accepted a series too short for its delays")
	}
}
