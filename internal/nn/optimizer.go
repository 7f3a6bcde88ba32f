package nn

import (
	"math"

	"miras/internal/mat"
)

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

// Step applies the gradients in g to the optimizer's network,
// interpreting g as the gradient of a loss to minimise.
func (a *Adam) Step(g *Grads) {
	a.t++
	// The decays travel as float64 fields, so 1−β is float64 arithmetic
	// (0.09999999999999998 for β1), not the exact constant 0.1 that Go
	// would fold from the untyped constants.
	p := mat.AdamParams{Beta1: adamBeta1, Beta2: adamBeta2, LR: a.lr, Eps: adamEps}
	p.Corr1 = 1 - math.Pow(p.Beta1, float64(a.t))
	p.Corr2 = 1 - math.Pow(p.Beta2, float64(a.t))
	for l, layer := range a.net.Layers {
		mat.AdamStep(layer.W.Data, a.m.W[l].Data, a.v.W[l].Data, g.W[l].Data, &p)
		mat.AdamStep(layer.B, a.m.B[l], a.v.B[l], g.B[l], &p)
	}
}
