// Package nn implements the small feedforward neural networks used by MIRAS:
// the environment (performance) model, and the DDPG actor and critic.
//
// It is a from-scratch, stdlib-only replacement for the TensorFlow models in
// the paper. Networks are multilayer perceptrons with per-layer activations,
// trained by backpropagation with Adam. Two features beyond a plain
// MLP are needed by the paper and supported here:
//
//   - an auxiliary input injected at an arbitrary layer (the DDPG critic in
//     the paper receives the action at its second layer), with gradients
//     available with respect to both inputs (the actor update needs ∂Q/∂a);
//   - direct parameter access for target-network soft updates and
//     parameter-space exploration noise (Plappert et al., 2018).
package nn

import (
	"fmt"
	"math"

	"miras/internal/mat"
)

// Activation is an elementwise (or, for Softmax, vectorwise) nonlinearity
// applied to a layer's pre-activation. Both methods carry the layer's bias
// term, so a layer's bias and activation take one pass over its outputs
// forward and one backward.
type Activation interface {
	// Name identifies the activation for serialisation.
	Name() string
	// Apply writes f(pre + b) into out: the layer bias b added to the
	// pre-activation, then the activation. out, pre and b have the same
	// length; out may alias pre.
	Apply(out, pre, b []float64)
	// Backprop writes into dPre the gradient of the loss with respect to
	// the pre-activation, given the layer output out (= f(pre + b)) and the
	// gradient dOut with respect to that output, and adds dPre into the
	// bias gradient dB unless dB is nil. dPre may alias dOut.
	Backprop(dPre, out, dOut, dB []float64)
}

// Compile-time interface checks.
var (
	_ Activation = ReLU{}
	_ Activation = Tanh{}
	_ Activation = Identity{}
	_ Activation = Softmax{}
	_ Activation = Sigmoid{}
)

// addBiasGrad adds dPre into dB unless dB is nil: the bias gradient of
// every activation without a fused pass of its own.
func addBiasGrad(dB, dPre []float64) {
	if dB != nil {
		mat.VecAddScaled(dB, dPre, 1)
	}
}

// ReLU is the rectified linear unit, max(0, x). The paper uses ReLU in the
// environment-model network.
type ReLU struct{}

// Name implements Activation.
func (ReLU) Name() string { return "relu" }

// Apply implements Activation: pre+b where it is positive, +0 elsewhere
// (NaN included), branch-free through mat.ReLUTo's lanes where they run.
func (ReLU) Apply(out, pre, b []float64) { mat.ReLUTo(out, pre, b) }

// Backprop implements Activation. The subgradient at 0 is taken as 0; the
// bias gradient comes in the same branch-free pass, through
// mat.ReLUGradTo's lanes where they run.
func (ReLU) Backprop(dPre, out, dOut, dB []float64) { mat.ReLUGradTo(dPre, out, dOut, dB) }

// Tanh is the hyperbolic tangent activation, used in DDPG hidden layers.
type Tanh struct{}

// Name implements Activation.
func (Tanh) Name() string { return "tanh" }

// Apply implements Activation: math.Tanh(pre+b) of every element, bias add
// and tanh in one pass through mat.TanhTo's lanes where they run.
func (Tanh) Apply(out, pre, b []float64) { mat.TanhTo(out, pre, b) }

// Backprop implements Activation: d tanh(x)/dx = 1 − tanh(x)², and the
// bias gradient in the same pass, through mat.TanhGradTo's lanes where
// they run.
func (Tanh) Backprop(dPre, out, dOut, dB []float64) { mat.TanhGradTo(dPre, out, dOut, dB) }

// Identity is the linear activation used on regression output layers (the
// environment model predicts raw next-state WIP values).
type Identity struct{}

// Name implements Activation.
func (Identity) Name() string { return "identity" }

// Apply implements Activation.
func (Identity) Apply(out, pre, b []float64) {
	for i, v := range pre {
		out[i] = v + b[i]
	}
}

// Backprop implements Activation.
func (Identity) Backprop(dPre, out, dOut, dB []float64) {
	copy(dPre, dOut)
	addBiasGrad(dB, dPre)
}

// Sigmoid is the logistic activation 1/(1+e^−x).
type Sigmoid struct{}

// Name implements Activation.
func (Sigmoid) Name() string { return "sigmoid" }

// Apply implements Activation.
func (Sigmoid) Apply(out, pre, b []float64) {
	for i, v := range pre {
		out[i] = 1 / (1 + math.Exp(-(v + b[i])))
	}
}

// Backprop implements Activation: dσ/dx = σ(1−σ).
func (Sigmoid) Backprop(dPre, out, dOut, dB []float64) {
	for i := range dPre {
		dPre[i] = dOut[i] * out[i] * (1 - out[i])
	}
	addBiasGrad(dB, dPre)
}

// Softmax is the vectorwise softmax activation used on the actor's output
// layer so the emitted action is a categorical distribution over task types
// (§IV-D of the paper: the distribution is scaled by the consumer budget C).
type Softmax struct{}

// Name implements Activation.
func (Softmax) Name() string { return "softmax" }

// Apply implements Activation.
func (Softmax) Apply(out, pre, b []float64) {
	Identity{}.Apply(out, pre, b)
	mat.Softmax(out, out)
}

// Backprop implements Activation using the softmax Jacobian-vector product:
// dPre_i = out_i · (dOut_i − Σ_j dOut_j · out_j).
func (Softmax) Backprop(dPre, out, dOut, dB []float64) {
	dot := mat.VecDot(dOut, out)
	for i := range dPre {
		dPre[i] = out[i] * (dOut[i] - dot)
	}
	addBiasGrad(dB, dPre)
}

// ActivationByName returns the activation with the given Name. It is the
// inverse of Activation.Name, used when deserialising networks.
func ActivationByName(name string) (Activation, error) {
	switch name {
	case "relu":
		return ReLU{}, nil
	case "tanh":
		return Tanh{}, nil
	case "identity":
		return Identity{}, nil
	case "sigmoid":
		return Sigmoid{}, nil
	case "softmax":
		return Softmax{}, nil
	default:
		return nil, fmt.Errorf("nn: unknown activation %q", name)
	}
}
