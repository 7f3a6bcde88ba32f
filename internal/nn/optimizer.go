package nn

import (
	"math"

	"miras/internal/mat"
)

// Optimizer applies accumulated gradients to a network's parameters.
// Implementations own per-parameter state (momenta) and must be constructed
// against the specific network they will update.
type Optimizer interface {
	// Step applies the gradients in g to the optimizer's network,
	// interpreting g as the gradient of a loss to MINIMISE.
	Step(g *Grads)
}

// Compile-time interface checks.
var (
	_ Optimizer = (*SGD)(nil)
	_ Optimizer = (*Adam)(nil)
)

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	net      *Network
	lr       float64
	momentum float64
	velocity *Grads
}

// NewSGD returns an SGD optimizer for net with the given learning rate and
// momentum coefficient (0 disables momentum).
func NewSGD(net *Network, lr, momentum float64) *SGD {
	s := &SGD{net: net, lr: lr, momentum: momentum}
	if momentum != 0 {
		s.velocity = NewGrads(net)
	}
	return s
}

// Step implements Optimizer.
func (s *SGD) Step(g *Grads) {
	for l, layer := range s.net.Layers {
		if s.velocity != nil {
			vw := s.velocity.W[l]
			vw.Scale(s.momentum)
			vw.AddScaled(g.W[l], 1)
			layer.W.AddScaled(vw, -s.lr)
			vb := s.velocity.B[l]
			for i := range vb {
				vb[i] = s.momentum*vb[i] + g.B[l][i]
				layer.B[i] -= s.lr * vb[i]
			}
		} else {
			layer.W.AddScaled(g.W[l], -s.lr)
			mat.VecAddScaled(layer.B, g.B[l], -s.lr)
		}
	}
}

// Adam's moment decays and denominator fuzz: the conventional values from
// Kingma & Ba (2015).
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// Adam is the Adam optimizer (Kingma & Ba, 2015) with bias-corrected
// first and second moment estimates.
type Adam struct {
	net  *Network
	lr   float64
	m, v *Grads
	t    int
}

// NewAdam returns an Adam optimizer for net with learning rate lr.
func NewAdam(net *Network, lr float64) *Adam {
	return &Adam{net: net, lr: lr, m: NewGrads(net), v: NewGrads(net)}
}

// Step implements Optimizer.
func (a *Adam) Step(g *Grads) {
	a.t++
	// The decays are copied into float64 variables so 1−β is float64
	// arithmetic (0.09999999999999998 for β1), not the exact constant 0.1
	// that Go would fold from the untyped constants.
	beta1, beta2, eps, lr := adamBeta1, adamBeta2, adamEps, a.lr
	corr1 := 1 - math.Pow(beta1, float64(a.t))
	corr2 := 1 - math.Pow(beta2, float64(a.t))
	for l, layer := range a.net.Layers {
		mw, vw, gw := a.m.W[l].Data, a.v.W[l].Data, g.W[l].Data
		w := layer.W.Data
		for i, gi := range gw {
			mw[i] = beta1*mw[i] + (1-beta1)*gi
			vw[i] = beta2*vw[i] + (1-beta2)*gi*gi
			w[i] -= lr * (mw[i] / corr1) / (math.Sqrt(vw[i]/corr2) + eps)
		}
		mb, vb, gb := a.m.B[l], a.v.B[l], g.B[l]
		for i, gi := range gb {
			mb[i] = beta1*mb[i] + (1-beta1)*gi
			vb[i] = beta2*vb[i] + (1-beta2)*gi*gi
			layer.B[i] -= lr * (mb[i] / corr1) / (math.Sqrt(vb[i]/corr2) + eps)
		}
	}
}
