package nn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestActivationString(t *testing.T) {
	tests := map[Activation]string{
		ActTanSigmoid:  "tan-sigmoid",
		ActLogSigmoid:  "log-sigmoid",
		ActElliott:     "elliott",
		ActLinear:      "linear",
		Activation(99): "activation(99)",
	}
	for a, want := range tests {
		if got := a.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", a, got, want)
		}
	}
}

func TestActivationShapes(t *testing.T) {
	for _, a := range []Activation{ActTanSigmoid, ActLogSigmoid, ActElliott} {
		f, _ := a.funcs()
		if v := f(0); math.Abs(v) > 1e-12 {
			t.Errorf("%v(0) = %v, want 0", a, v)
		}
		// Squashing: bounded in (-1, 1) and monotone.
		prev := f(-10)
		for x := -9.5; x <= 10; x += 0.5 {
			v := f(x)
			if v <= prev-1e-12 {
				t.Fatalf("%v not monotone at %v", a, x)
			}
			if v <= -1 || v >= 1 {
				t.Fatalf("%v(%v) = %v out of (-1,1)", a, x, v)
			}
			prev = v
		}
	}
	if f, _ := ActLinear.funcs(); f(3.5) != 3.5 {
		t.Error("linear should be identity")
	}
}

// Property: the derivative funcs returns matches a numerical derivative
// of its transfer function.
func TestActivationDerivativeProperty(t *testing.T) {
	for _, a := range []Activation{ActTanSigmoid, ActLogSigmoid, ActElliott, ActLinear} {
		fn, df := a.funcs()
		f := func(raw float64) bool {
			x := math.Mod(raw, 5)
			if math.IsNaN(x) {
				x = 0
			}
			const h = 1e-6
			num := (fn(x+h) - fn(x-h)) / (2 * h)
			ana := df(fn(x))
			return math.Abs(num-ana) < 1e-4
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", a, err)
		}
	}
}

func TestNetworkTrainsWithEveryActivation(t *testing.T) {
	// y = x^2 on [-2, 2]: needs a genuine nonlinearity (linear must fail).
	n := 80
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x := -2 + 4*float64(i)/float64(n-1)
		xs[i] = []float64{x}
		ys[i] = x * x
	}
	mses := make(map[Activation]float64)
	for _, a := range []Activation{ActTanSigmoid, ActLogSigmoid, ActElliott, ActLinear} {
		net, err := NewNetwork(1, 8, 11)
		if err != nil {
			t.Fatal(err)
		}
		net.Act = a
		mse, err := net.Train(xs, ys, &TrainConfig{Epochs: 1500})
		if err != nil {
			t.Fatal(err)
		}
		mses[a] = mse
	}
	for _, a := range []Activation{ActTanSigmoid, ActLogSigmoid, ActElliott} {
		if mses[a] > 0.05 {
			t.Errorf("%v failed to fit x^2: MSE %v", a, mses[a])
		}
	}
	// The linear ablation cannot represent x^2 and must be much worse.
	if mses[ActLinear] < 10*mses[ActTanSigmoid] {
		t.Errorf("linear ablation suspiciously good: %v vs tanh %v", mses[ActLinear], mses[ActTanSigmoid])
	}
}

func TestNARWithElliott(t *testing.T) {
	n := 200
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 20)
	}
	m, err := FitNAR(xs, NARConfig{Delays: 6, Hidden: 8, Act: ActElliott, Seed: 3, Train: TrainConfig{Epochs: 600}})
	if err != nil {
		t.Fatal(err)
	}
	p := m.PredictNext()
	want := math.Sin(2 * math.Pi * float64(n) / 20)
	if math.Abs(p-want) > 0.3 {
		t.Errorf("elliott NAR prediction %v, want ~%v", p, want)
	}
}
