package nn

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/timeseries"
)

// The training loop Train replaced, kept verbatim as the reference the
// flat kernel must reproduce bit for bit: it re-reads the weights from
// the Network every epoch, and chooses the activation per hidden unit.

func (n *Network) referenceTrain(xs [][]float64, ys []float64, cfg *TrainConfig) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, ErrNoData
	}
	c := cfg.withDefaults()
	nw := n.Hidden*n.In + n.Hidden + n.Hidden + 1 // W1, B1, W2, B2
	state := newRpropState(nw)
	weights := make([]float64, nw)
	grads := make([]float64, nw)
	n.flatten(weights)
	var mse float64
	for epoch := 0; epoch < c.Epochs; epoch++ {
		n.unflatten(weights)
		mse = n.referenceGradients(xs, ys, grads)
		if mse < c.TolMSE {
			break
		}
		state.apply(weights, grads)
	}
	n.unflatten(weights)
	return mse, nil
}

// referenceGradients computes the full-batch MSE gradient into grads (same
// layout as flatten) and returns the MSE.
func (n *Network) referenceGradients(xs [][]float64, ys []float64, grads []float64) float64 {
	for i := range grads {
		grads[i] = 0
	}
	act := n.act()
	hiddenAct := make([]float64, n.Hidden)
	var sse float64
	for s, x := range xs {
		// Forward.
		y := n.B2
		for h := 0; h < n.Hidden; h++ {
			a := n.B1[h]
			w := n.W1[h]
			for i := 0; i < n.In && i < len(x); i++ {
				a += w[i] * x[i]
			}
			hiddenAct[h] = act.eval(a)
			y += n.W2[h] * hiddenAct[h]
		}
		err := y - ys[s]
		sse += err * err
		// Backward. dL/dy = 2*err/N; fold the 2/N constant in at the end
		// by scaling err here (RPROP only uses gradient signs anyway, but
		// keep magnitudes meaningful for the returned MSE bookkeeping).
		k := 0
		for h := 0; h < n.Hidden; h++ {
			dAct := act.derivFromOutput(hiddenAct[h])
			dA := err * n.W2[h] * dAct
			for i := 0; i < n.In; i++ {
				xi := 0.0
				if i < len(x) {
					xi = x[i]
				}
				grads[k+i] += dA * xi
			}
			k += n.In
		}
		for h := 0; h < n.Hidden; h++ {
			dAct := act.derivFromOutput(hiddenAct[h])
			grads[k+h] += err * n.W2[h] * dAct
		}
		k += n.Hidden
		for h := 0; h < n.Hidden; h++ {
			grads[k+h] += err * hiddenAct[h]
		}
		k += n.Hidden
		grads[k] += err
	}
	nSamples := float64(len(xs))
	for i := range grads {
		grads[i] *= 2 / nSamples
	}
	return sse / nSamples
}

// eval returns f(x).
func (a Activation) eval(x float64) float64 {
	switch a {
	case ActLogSigmoid:
		return 2/(1+math.Exp(-x)) - 1
	case ActElliott:
		return x / (1 + math.Abs(x))
	case ActLinear:
		return x
	default:
		return math.Tanh(x)
	}
}

// derivFromOutput returns f'(x) expressed via y = f(x) (all supported
// functions admit this form, which avoids recomputing the pre-activation).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ActLogSigmoid:
		// y = 2s-1 with s = sigmoid(x); s'(x) = s(1-s) and dy/dx = 2s'.
		s := (y + 1) / 2
		return 2 * s * (1 - s)
	case ActElliott:
		// y = x/(1+|x|)  =>  f'(x) = 1/(1+|x|)^2 = (1-|y|)^2.
		d := 1 - math.Abs(y)
		return d * d
	case ActLinear:
		return 1
	default:
		return 1 - y*y
	}
}

// networkBits lists the bit patterns of every weight, in flatten's layout.
func networkBits(n *Network) []uint64 {
	w := make([]float64, n.Hidden*n.In+2*n.Hidden+1)
	n.flatten(w)
	bits := make([]uint64, len(w))
	for i, v := range w {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestTrainMatchesReference trains random networks with Train and with the
// reference loop and requires the same bits in every weight and in the
// returned MSE, and in the first epoch's gradient: the flat kernel changes
// no model. After the random rows come windows whose rows repeat, which
// the kernel trains without their forward pass: runs of one row whose
// targets differ, the all-zero window of a constant series, rows that
// differ only in the sign of a zero, and a run broken by one row.
func TestTrainMatchesReference(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	acts := []Activation{0, ActTanSigmoid, ActLogSigmoid, ActElliott, ActLinear}
	rng := rand.New(rand.NewPCG(20, 17))
	// check trains init on (xs, ys) both ways. An early case stops before
	// cfg.Epochs: its tolerance sits just above the MSE the reference
	// reaches at a random epoch.
	check := func(desc string, init *Network, xs [][]float64, ys []float64, cfg TrainConfig, early bool) {
		t.Helper()
		if early {
			probe := init.Clone()
			stopAt := TrainConfig{Epochs: 1 + rng.IntN(cfg.Epochs)}
			mse, err := probe.referenceTrain(xs, ys, &stopAt)
			if err != nil {
				t.Fatal(err)
			}
			cfg.TolMSE = math.Nextafter(mse, math.Inf(1))
		}
		name := fmt.Sprintf("%s epochs=%d tol=%g)", desc, cfg.Epochs, cfg.TolMSE)

		// One gradient at the initial weights, with Train's repeat marks
		// and without: RPROP reads only the gradient's signs, so the
		// trained weights alone would not show a last-bit change in a
		// gradient.
		refGrads := make([]float64, init.Hidden*init.In+2*init.Hidden+1)
		refFirstMSE := init.Clone().referenceGradients(xs, ys, refGrads)
		for _, repeats := range [][]bool{nil, repeatedRows(xs)} {
			k := init.newKernel()
			firstMSE := k.gradients(xs, ys, repeats)
			if math.Float64bits(firstMSE) != math.Float64bits(refFirstMSE) {
				t.Fatalf("%s, marked=%t: first-epoch MSE %v, reference %v", name, repeats != nil, firstMSE, refFirstMSE)
			}
			for i, g := range refGrads {
				if math.Float64bits(k.grads[i]) != math.Float64bits(g) {
					t.Fatalf("%s, marked=%t: gradient %d is %v, reference %v", name, repeats != nil, i, k.grads[i], g)
				}
			}
		}

		ref, got := init.Clone(), init.Clone()
		refMSE, refErr := ref.referenceTrain(xs, ys, &cfg)
		gotMSE, gotErr := got.Train(xs, ys, &cfg)
		if refErr != nil || gotErr != nil {
			t.Fatalf("%s: errors %v / %v", name, refErr, gotErr)
		}
		if early && !(refMSE < cfg.TolMSE) {
			t.Fatalf("%s: reference ran all epochs (MSE %v); the case does not stop early", name, refMSE)
		}
		if math.Float64bits(gotMSE) != math.Float64bits(refMSE) {
			t.Fatalf("%s: MSE %v (%#x), reference %v (%#x)", name,
				gotMSE, math.Float64bits(gotMSE), refMSE, math.Float64bits(refMSE))
		}
		refBits, gotBits := networkBits(ref), networkBits(got)
		for i := range refBits {
			if gotBits[i] != refBits[i] {
				t.Fatalf("%s: weight %d is %#x, reference %#x", name, i, gotBits[i], refBits[i])
			}
		}
	}

	for trial := 0; trial < trials; trial++ {
		in, hidden := 1+rng.IntN(8), 1+rng.IntN(8)
		rows := 3 + rng.IntN(298)
		scale := math.Pow(10, -2+4*rng.Float64())
		act := acts[rng.IntN(len(acts))]
		cfg := TrainConfig{Epochs: 1 + rng.IntN(200)}
		xs := make([][]float64, rows)
		ys := make([]float64, rows)
		for s := range xs {
			x := make([]float64, in)
			var sum float64
			for i := range x {
				x[i] = scale * rng.NormFloat64()
				sum += x[i] / scale
			}
			xs[s] = x
			ys[s] = math.Sin(sum) + 0.1*rng.NormFloat64()
		}
		init, err := NewNetwork(in, hidden, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		init.Act = act
		check(fmt.Sprintf("trial %d (in=%d hidden=%d rows=%d scale=%.3g act=%v", trial, in, hidden, rows, scale, act),
			init, xs, ys, cfg, trial%4 == 3)
	}

	shapes := []string{"runs", "constant", "signed zeros", "broken run"}
	for trial := 0; trial < trials/2; trial++ {
		shape := shapes[trial%len(shapes)]
		in, hidden := 1+rng.IntN(8), 1+rng.IntN(8)
		rows := 4 + rng.IntN(297)
		act := acts[rng.IntN(len(acts))]
		cfg := TrainConfig{Epochs: 1 + rng.IntN(200)}
		xs, ys := repeatingWindow(rng, shape, in, rows)
		if repeatedRows(xs) == nil {
			t.Fatalf("repeat trial %d (%s): no row repeats the one before", trial, shape)
		}
		init, err := NewNetwork(in, hidden, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		init.Act = act
		// Nonzero biases, as a network trained before has: a cold one
		// answers 0 on the all-zero window and stops at epoch 1.
		for h := range init.B1 {
			init.B1[h] = rng.NormFloat64()
		}
		init.B2 = rng.NormFloat64()
		check(fmt.Sprintf("repeat trial %d (%s in=%d hidden=%d rows=%d act=%v", trial, shape, in, hidden, rows, act),
			init, xs, ys, cfg, trial/len(shapes)%4 == 3)
	}
}

// repeatingWindow builds rows (at least 4) of in values that repeat in the
// given shape, with a target per row. Each row is its own slice.
func repeatingWindow(rng *rand.Rand, shape string, in, rows int) ([][]float64, []float64) {
	xs := make([][]float64, rows)
	ys := make([]float64, rows)
	row := make([]float64, in)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	switch shape {
	case "runs":
		// A new run redraws one value of the last, often not the first.
		for s := range xs {
			if s > 0 && rng.IntN(8) == 0 {
				row[rng.IntN(in)] = rng.NormFloat64()
			}
			xs[s] = slices.Clone(row)
			ys[s] = rng.NormFloat64()
		}
	case "constant":
		// What trainNAR builds from a zero-variance series.
		for s := range xs {
			xs[s] = make([]float64, in)
		}
	case "signed zeros":
		// An odd row repeats the last; an even one flips the sign of one
		// of its zeros.
		row[rng.IntN(in)] = 0
		for i := range row {
			if rng.IntN(2) == 0 {
				row[i] = 0
			}
		}
		for s := range xs {
			if s > 0 && s%2 == 0 {
				for i := rng.IntN(in); ; i = (i + 1) % in {
					if row[i] == 0 {
						row[i] = -row[i]
						break
					}
				}
			}
			xs[s] = slices.Clone(row)
			ys[s] = rng.NormFloat64()
		}
	case "broken run":
		// One row inside the run differs in its last value only.
		broken := 2 + rng.IntN(rows-3)
		for s := range xs {
			xs[s] = slices.Clone(row)
			if s == broken {
				xs[s][in-1] += 1
			}
			ys[s] = rng.NormFloat64()
		}
	default:
		panic("unknown window shape " + shape)
	}
	return xs, ys
}

// narRows is the serving shape of one NAR training: a 256-record window of
// series, standardized and lagged by delays.
func narRows(series []float64, delays int) ([][]float64, []float64) {
	rows, ys, err := timeseries.LagMatrix(timeseries.FitScaler(series).Transform(series), delays)
	if err != nil {
		panic(err)
	}
	return rows, ys
}

// narWindows are 256-record windows of a busy target's three NAR series:
// lognormal durations, launch hours in runs of 40 records, and a single
// day of month, whose lag rows are all zero. Most duration rows differ
// from the row before; most hour rows and every day row repeat it.
func narWindows() []struct {
	name   string
	series []float64
} {
	rng := rand.New(rand.NewPCG(5, 6))
	duration, hour, day := make([]float64, 256), make([]float64, 256), make([]float64, 256)
	for i := range duration {
		duration[i] = math.Exp(7 + rng.NormFloat64())
		hour[i] = float64((9 + i/40) % 24)
		day[i] = 17
	}
	return []struct {
		name   string
		series []float64
	}{{"duration", duration}, {"hour", hour}, {"day", day}}
}

// BenchmarkNARTrain times one NAR training at ddosd's serving shape (2
// delays, a 256-record window, -nar-epochs 120) on each of narWindows with
// Train and with the reference loop it replaced. The day window starts
// from a network trained on the duration window: a cold network, with zero
// biases, answers 0 on its zero rows and stops at epoch 1.
func BenchmarkNARTrain(b *testing.B) {
	cfg := TrainConfig{Epochs: 120}
	windows := narWindows()
	for _, w := range windows {
		rows, ys := narRows(w.series, 2)
		for _, hidden := range []int{4, 8} {
			init, err := NewNetwork(2, hidden, 1)
			if err != nil {
				b.Fatal(err)
			}
			if w.name == "day" {
				durRows, durYs := narRows(windows[0].series, 2)
				if _, err := init.Train(durRows, durYs, &cfg); err != nil {
					b.Fatal(err)
				}
			}
			for _, impl := range []struct {
				name  string
				train func(*Network) (float64, error)
			}{
				{"kernel", func(n *Network) (float64, error) { return n.Train(rows, ys, &cfg) }},
				{"reference", func(n *Network) (float64, error) { return n.referenceTrain(rows, ys, &cfg) }},
			} {
				b.Run(fmt.Sprintf("%s/hidden=%d/%s", w.name, hidden, impl.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := impl.train(init.Clone()); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
