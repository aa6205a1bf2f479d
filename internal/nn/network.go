// Package nn implements the feed-forward neural network behind the paper's
// spatial model (§V): a single hidden layer with the tan-sigmoid transfer
// function and a linear output, trained full-batch with resilient
// backpropagation (RPROP). A nonlinear autoregressive (NAR) wrapper models
// a series as a nonlinear function of its past q values (Eq. 6), and a grid
// search tunes the number of delays and hidden nodes as the paper does.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrNoData is returned when training is attempted with no samples.
var ErrNoData = errors.New("nn: no training samples")

// Network is a 1-hidden-layer feed-forward regressor:
//
//	y = b2 + Σ_h W2[h] * tanh(b1[h] + Σ_i W1[h][i] x[i])
type Network struct {
	In, Hidden int
	// Act is the hidden-layer transfer function (zero value: tan-sigmoid,
	// the paper's default).
	Act Activation
	W1  [][]float64 // Hidden x In
	B1  []float64   // Hidden
	W2  []float64   // Hidden
	B2  float64
}

// act returns the effective activation (zero value defaults to tanh).
func (n *Network) act() Activation {
	if n.Act == 0 {
		return ActTanSigmoid
	}
	return n.Act
}

// NewNetwork allocates a network with Xavier-style random initialization
// drawn from the seeded generator.
func NewNetwork(in, hidden int, seed uint64) (*Network, error) {
	if in < 1 || hidden < 1 {
		return nil, fmt.Errorf("nn: invalid topology in=%d hidden=%d", in, hidden)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
	n := &Network{
		In:     in,
		Hidden: hidden,
		W1:     make([][]float64, hidden),
		B1:     make([]float64, hidden),
		W2:     make([]float64, hidden),
	}
	scale1 := math.Sqrt(2.0 / float64(in+hidden))
	scale2 := math.Sqrt(2.0 / float64(hidden+1))
	for h := 0; h < hidden; h++ {
		n.W1[h] = make([]float64, in)
		for i := range n.W1[h] {
			n.W1[h][i] = rng.NormFloat64() * scale1
		}
		n.W2[h] = rng.NormFloat64() * scale2
	}
	return n, nil
}

// Predict evaluates the network on input x (length In; shorter inputs are
// zero-padded, longer ones truncated).
func (n *Network) Predict(x []float64) float64 {
	f, _ := n.act().funcs()
	y := n.B2
	for h := 0; h < n.Hidden; h++ {
		a := n.B1[h]
		w := n.W1[h]
		for i := 0; i < n.In && i < len(x); i++ {
			a += w[i] * x[i]
		}
		y += n.W2[h] * f(a)
	}
	return y
}

// TrainConfig controls RPROP training.
type TrainConfig struct {
	// Epochs is the number of full-batch passes. Default 300.
	Epochs int
	// TolMSE stops training early once the training MSE drops below it.
	TolMSE float64
}

func (c *TrainConfig) withDefaults() TrainConfig {
	out := TrainConfig{Epochs: 300, TolMSE: 1e-8}
	if c != nil {
		if c.Epochs > 0 {
			out.Epochs = c.Epochs
		}
		if c.TolMSE > 0 {
			out.TolMSE = c.TolMSE
		}
	}
	return out
}

// rpropState carries per-weight step sizes and previous gradients.
type rpropState struct {
	step, prev []float64
}

func newRpropState(n int) *rpropState {
	s := &rpropState{step: make([]float64, n), prev: make([]float64, n)}
	for i := range s.step {
		s.step[i] = 0.01
	}
	return s
}

const (
	rpropEtaPlus  = 1.2
	rpropEtaMinus = 0.5
	rpropStepMax  = 1.0
	rpropStepMin  = 1e-9
)

// apply performs one RPROP- update of weights given gradients, in place.
func (s *rpropState) apply(weights, grads []float64) {
	for i := range weights {
		g := grads[i]
		sign := s.prev[i] * g
		switch {
		case sign > 0:
			s.step[i] = math.Min(s.step[i]*rpropEtaPlus, rpropStepMax)
		case sign < 0:
			s.step[i] = math.Max(s.step[i]*rpropEtaMinus, rpropStepMin)
			g = 0 // RPROP-: skip update after sign change
		}
		if g > 0 {
			weights[i] -= s.step[i]
		} else if g < 0 {
			weights[i] += s.step[i]
		}
		s.prev[i] = g
	}
}

// Train fits the network to (xs, ys) with full-batch RPROP and returns the
// final training MSE. Every row of xs must hold exactly In values.
func (n *Network) Train(xs [][]float64, ys []float64, cfg *TrainConfig) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, ErrNoData
	}
	for s, x := range xs {
		if len(x) != n.In {
			return 0, fmt.Errorf("nn: training row %d has %d values, want %d", s, len(x), n.In)
		}
	}
	c := cfg.withDefaults()
	k := n.newKernel()
	state := newRpropState(len(k.weights))
	repeats := repeatedRows(xs)
	var mse float64
	for epoch := 0; epoch < c.Epochs; epoch++ {
		mse = k.gradients(xs, ys, repeats)
		if mse < c.TolMSE {
			break
		}
		state.apply(k.weights, k.grads)
	}
	n.unflatten(k.weights)
	return mse, nil
}

func (n *Network) flatten(out []float64) {
	k := 0
	for h := 0; h < n.Hidden; h++ {
		copy(out[k:], n.W1[h])
		k += n.In
	}
	copy(out[k:], n.B1)
	k += n.Hidden
	copy(out[k:], n.W2)
	k += n.Hidden
	out[k] = n.B2
}

func (n *Network) unflatten(in []float64) {
	k := 0
	for h := 0; h < n.Hidden; h++ {
		copy(n.W1[h], in[k:k+n.In])
		k += n.In
	}
	copy(n.B1, in[k:k+n.Hidden])
	k += n.Hidden
	copy(n.W2, in[k:k+n.Hidden])
	k += n.Hidden
	n.B2 = in[k]
}

// kernel is one Train call's state: the weights and their gradient in
// flatten's layout, and the current sample's hidden activations with the
// transfer function's derivative at each.
type kernel struct {
	in, hidden                       int
	weights, grads, hiddenAct, deriv []float64
	activate                         func(v, d []float64)
}

// newKernel returns a kernel holding n's weights.
func (n *Network) newKernel() kernel {
	nw := n.Hidden*n.In + n.Hidden + n.Hidden + 1 // W1, B1, W2, B2
	k := kernel{
		in:        n.In,
		hidden:    n.Hidden,
		weights:   make([]float64, nw),
		grads:     make([]float64, nw),
		hiddenAct: make([]float64, n.Hidden),
		deriv:     make([]float64, n.Hidden),
		activate:  n.act().activate(),
	}
	n.flatten(k.weights)
	return k
}

// repeatedRows marks each row of xs whose float64 bits equal the previous
// row's, or returns nil when no row does. Lag rows of an hour or day
// series come in such runs.
func repeatedRows(xs [][]float64) []bool {
	var marks []bool
	for s := 1; s < len(xs); s++ {
		if sameBits(xs[s], xs[s-1]) {
			if marks == nil {
				marks = make([]bool, len(xs))
			}
			marks[s] = true
		}
	}
	return marks
}

// sameBits reports whether a and b, of equal length, hold the same bits
// value by value. Bits, not ==: +0 and -0 are equal values, and NaN equals
// nothing.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// gradients computes the full-batch MSE gradient at k.weights into k.grads
// and returns the MSE. Each accumulated value starts where, and adds its
// terms in the order, the per-epoch loop this kernel replaced did: samples
// in order, inputs and hidden units ascending, then the 2/n scale. That
// order defines every trained model, so it must not change
// (TestTrainMatchesReference, DESIGN.md §6).
//
// A row that repeats[s] marks skips the forward pass: its inputs are the
// previous row's bits and the weights do not change within a call, so
// hiddenAct, deriv and y already hold what the pass would compute. Its
// error and backward pass still run. A nil repeats computes every row.
func (k *kernel) gradients(xs [][]float64, ys []float64, repeats []bool) float64 {
	in, hidden := k.in, k.hidden
	nW1 := hidden * in
	w1, b1 := k.weights[:nW1], k.weights[nW1:nW1+hidden]
	w2, b2 := k.weights[nW1+hidden:nW1+2*hidden], k.weights[nW1+2*hidden]
	g := k.grads
	clear(g)
	gW1, gB1, gW2 := g[:nW1], g[nW1:nW1+hidden], g[nW1+hidden:nW1+2*hidden]
	hiddenAct, deriv := k.hiddenAct, k.deriv
	var sse, gB2, y float64
	for s, x := range xs {
		// Forward.
		if repeats == nil || !repeats[s] {
			for h := range hiddenAct {
				hiddenAct[h] = dot(b1[h], w1[h*in:], x)
			}
			k.activate(hiddenAct, deriv)
			y = b2
			for h, t := range hiddenAct {
				y += w2[h] * t
			}
		}
		err := y - ys[s]
		sse += err * err
		// Backward. dL/dy = 2*err/N; the 2/N constant is folded in at the
		// end.
		for h, t := range hiddenAct {
			dA := err * w2[h] * deriv[h]
			axpy(gW1[h*in:], dA, x)
			gB1[h] += dA
			gW2[h] += err * t
		}
		gB2 += err
	}
	g[nW1+2*hidden] = gB2
	nSamples := float64(len(xs))
	for i := range g {
		g[i] *= 2 / nSamples
	}
	return sse / nSamples
}

// dot returns a + w[0]*x[0] + w[1]*x[1] + ..., added in that order.
func dot(a float64, w, x []float64) float64 {
	w = w[:len(x)]
	for i, xi := range x {
		a += w[i] * xi
	}
	return a
}

// axpy adds a*x[i] to each g[i].
func axpy(g []float64, a float64, x []float64) {
	g = g[:len(x)]
	for i, xi := range x {
		g[i] += a * xi
	}
}
