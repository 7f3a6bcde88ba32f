package mat

import (
	"fmt"
	"math"
)

// This file holds the elementwise parameter updates of training: the Adam
// step and the target networks' soft update. Runs of four go through the
// AVX2 lanes when useAVX2 is set; the tail, and every element otherwise,
// run the pure-Go loops. Each lane op is one correctly rounded VMULPD,
// VADDPD, VSUBPD, VDIVPD or VSQRTPD in the loops' order, so both paths
// give the same bits (FuzzUpdateLanes).

// AdamParams are the scalars of one Adam step (Kingma & Ba, 2015): the
// moment decays β₁ and β₂, the bias corrections Corr1 = 1−β₁ᵗ and
// Corr2 = 1−β₂ᵗ, the learning rate and the denominator's ε.
type AdamParams struct {
	Beta1, Beta2, Corr1, Corr2, LR, Eps float64
}

// AdamStep applies one Adam step to the parameters w, whose gradient is g,
// updating the first and second moments m and v in place:
//
//	m ← β₁·m + (1−β₁)·g;  v ← β₂·v + (1−β₂)·g·g;
//	w ← w − lr·(m/Corr1) / (√(v/Corr2) + ε).
//
// w, m and v must be as long as g.
func AdamStep(w, m, v, g []float64, p *AdamParams) {
	if len(w) != len(g) || len(m) != len(g) || len(v) != len(g) {
		panic(fmt.Sprintf("mat: AdamStep lengths w %d, m %d, v %d != g %d", len(w), len(m), len(v), len(g)))
	}
	n := 0
	if useAVX2 {
		n = len(g) &^ 3
		if n > 0 {
			c := [8]float64{p.Beta1, 1 - p.Beta1, p.Beta2, 1 - p.Beta2, p.Corr1, p.Corr2, p.LR, p.Eps}
			adamLanes(n, &w[0], &m[0], &v[0], &g[0], &c)
		}
	}
	adamStepGeneric(w[n:], m[n:], v[n:], g[n:], p)
}

func adamStepGeneric(w, m, v, g []float64, p *AdamParams) {
	w, m, v = w[:len(g)], m[:len(g)], v[:len(g)]
	beta1, beta2, eps, lr, corr1, corr2 := p.Beta1, p.Beta2, p.Eps, p.LR, p.Corr1, p.Corr2
	for i, gi := range g {
		m[i] = beta1*m[i] + (1-beta1)*gi
		v[i] = beta2*v[i] + (1-beta2)*gi*gi
		w[i] -= lr * (m[i] / corr1) / (math.Sqrt(v[i]/corr2) + eps)
	}
}

// SoftUpdate moves w toward src by fraction tau: w ← w·(1−τ) + τ·src, the
// DDPG target-network update. src must be as long as w.
func SoftUpdate(w, src []float64, tau float64) {
	checkSameLen("SoftUpdate", w, src)
	n := 0
	if useAVX2 {
		n = len(w) &^ 3
		if n > 0 {
			softLanes(n, &w[0], &src[0], 1-tau, tau)
		}
	}
	keep := 1 - tau
	for i := n; i < len(w); i++ {
		w[i] = w[i]*keep + tau*src[i]
	}
}
