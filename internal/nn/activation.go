package nn

import (
	"fmt"
	"math"
)

// Activation selects the hidden-layer transfer function. The paper (§V-A)
// considers the three functions most commonly used for multilayer
// networks — Log-Sigmoid, Tan-Sigmoid, and Linear — and picks the default
// Tan-Sigmoid; it cites Elliott (1993) for a cheaper sigmoid-shaped
// alternative, which is also provided.
type Activation int

// Supported transfer functions.
const (
	// ActTanSigmoid is tanh, the paper's choice.
	ActTanSigmoid Activation = iota + 1
	// ActLogSigmoid is the logistic function 1/(1+e^-x), rescaled to
	// (-1, 1) so weight initialization behaves comparably.
	ActLogSigmoid
	// ActElliott is Elliott's x/(1+|x|) squashing function.
	ActElliott
	// ActLinear is the identity (no hidden nonlinearity; the network
	// degenerates to an affine model — useful as an ablation).
	ActLinear
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ActTanSigmoid:
		return "tan-sigmoid"
	case ActLogSigmoid:
		return "log-sigmoid"
	case ActElliott:
		return "elliott"
	case ActLinear:
		return "linear"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// funcs returns the transfer function f and its derivative f'(x)
// expressed via y = f(x) (all supported functions admit this form, which
// avoids recomputing the pre-activation). The zero value, and any value
// not listed above, is tanh.
func (a Activation) funcs() (f, df func(float64) float64) {
	switch a {
	case ActLogSigmoid:
		return logSigmoid, logSigmoidDeriv
	case ActElliott:
		return elliott, elliottDeriv
	case ActLinear:
		return linear, linearDeriv
	default:
		return math.Tanh, tanhDeriv
	}
}

// activate returns Train's per-sample transfer, chosen once per call: it
// replaces each pre-activation in v by f(v) and writes f' at that point
// into d. Tanh, the paper's choice, calls math.Tanh directly rather than
// through a function value.
func (a Activation) activate() func(v, d []float64) {
	switch a {
	case ActLogSigmoid, ActElliott, ActLinear:
		f, df := a.funcs()
		return func(v, d []float64) {
			for h, x := range v {
				v[h] = f(x)
				d[h] = df(v[h])
			}
		}
	default:
		return func(v, d []float64) {
			for h, x := range v {
				t := math.Tanh(x)
				v[h] = t
				d[h] = tanhDeriv(t)
			}
		}
	}
}

func tanhDeriv(y float64) float64 { return 1 - y*y }

func logSigmoid(x float64) float64 { return 2/(1+math.Exp(-x)) - 1 }

// logSigmoidDeriv: y = 2s-1 with s = sigmoid(x); s'(x) = s(1-s) and
// dy/dx = 2s'.
func logSigmoidDeriv(y float64) float64 {
	s := (y + 1) / 2
	return 2 * s * (1 - s)
}

func elliott(x float64) float64 { return x / (1 + math.Abs(x)) }

// elliottDeriv: y = x/(1+|x|)  =>  f'(x) = 1/(1+|x|)^2 = (1-|y|)^2.
func elliottDeriv(y float64) float64 {
	d := 1 - math.Abs(y)
	return d * d
}

func linear(x float64) float64 { return x }

func linearDeriv(float64) float64 { return 1 }
