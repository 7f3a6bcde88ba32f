package nn

import "math"

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
