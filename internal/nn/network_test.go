package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"miras/internal/mat"
)

func newTestNet(t *testing.T, cfg Config, seed int64) *Network {
	t.Helper()
	return NewNetwork(cfg, rand.New(rand.NewSource(seed)))
}

func TestNewNetworkShapes(t *testing.T) {
	net := newTestNet(t, Config{Sizes: []int{8, 20, 20, 4}, AuxLayer: -1}, 1)
	if got := len(net.Layers); got != 3 {
		t.Fatalf("layers=%d, want 3", got)
	}
	if net.InDim() != 8 || net.OutDim() != 4 {
		t.Fatalf("dims in=%d out=%d, want 8/4", net.InDim(), net.OutDim())
	}
	wantShapes := [][2]int{{20, 8}, {20, 20}, {4, 20}}
	for l, s := range wantShapes {
		if net.Layers[l].OutDim() != s[0] || net.Layers[l].InDim() != s[1] {
			t.Fatalf("layer %d shape %dx%d, want %dx%d",
				l, net.Layers[l].OutDim(), net.Layers[l].InDim(), s[0], s[1])
		}
	}
}

func TestNewNetworkAuxShapes(t *testing.T) {
	// Critic-style: state 4 → 32 → (32 with action 3 injected) → 1.
	net := newTestNet(t, Config{Sizes: []int{4, 32, 32, 1}, AuxLayer: 1, AuxDim: 3}, 2)
	if net.Layers[1].InDim() != 35 {
		t.Fatalf("aux layer input dim=%d, want 35", net.Layers[1].InDim())
	}
	if net.InDim() != 4 {
		t.Fatalf("InDim=%d, want 4", net.InDim())
	}
	out := net.Forward([]float64{1, 2, 3, 4}, []float64{0.1, 0.2, 0.3})
	if len(out) != 1 {
		t.Fatalf("output length %d, want 1", len(out))
	}
}

func TestForwardDeterministic(t *testing.T) {
	net := newTestNet(t, Config{Sizes: []int{3, 5, 2}, AuxLayer: -1}, 3)
	x := []float64{0.5, -0.3, 1.2}
	a := net.Forward(x, nil)
	b := net.Forward(x, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Forward is not deterministic")
		}
	}
}

// TestPanelCacheMatchesForward checks a forward pass through packed
// panels equals the pass through the layers' matrices bit for bit, on
// widths in several residues mod 8 and over tanh, ReLU and softmax layers.
// Where the lane kernels are off nothing is packed and the two caches run
// the same loop.
func TestPanelCacheMatchesForward(t *testing.T) {
	for _, cfg := range []Config{
		{Sizes: []int{4, 64, 64, 64, 4}, Hidden: Tanh{}, Output: Softmax{}, AuxLayer: -1},
		{Sizes: []int{9, 37, 13, 9}, Output: Softmax{}, AuxLayer: -1},
		{Sizes: []int{1, 7, 1}, AuxLayer: -1},
	} {
		net := newTestNet(t, cfg, 5)
		panels := net.PackVecPanels()
		if panels != nil && len(panels) != len(net.Layers) {
			t.Fatalf("%v: %d panel sets for %d layers", cfg.Sizes, len(panels), len(net.Layers))
		}
		plain, packed := NewCache(net), NewPanelCache(net, panels)
		rng := rand.New(rand.NewSource(6))
		for trial := 0; trial < 20; trial++ {
			x := make([]float64, net.InDim())
			for i := range x {
				x[i] = rng.NormFloat64() * 3
			}
			want := net.ForwardCache(plain, x, nil)
			got := net.ForwardCache(packed, x, nil)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v output %d: panels %v, matrices %v", cfg.Sizes, i, got[i], want[i])
				}
			}
		}
	}
}

func TestForwardHandComputedTinyNet(t *testing.T) {
	// 2 → 1 identity network, manually set weights: y = 2x₀ − x₁ + 0.5.
	net := &Network{AuxLayer: -1, Layers: []*Dense{{
		W:   mat.NewFromSlice(1, 2, []float64{2, -1}),
		B:   []float64{0.5},
		Act: Identity{},
	}}}
	got := net.Forward([]float64{3, 4}, nil)
	if math.Abs(got[0]-2.5) > 1e-12 {
		t.Fatalf("got %g, want 2.5", got[0])
	}
}

func TestForwardPanicsOnWrongInput(t *testing.T) {
	net := newTestNet(t, Config{Sizes: []int{3, 2}, AuxLayer: -1}, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong input length")
		}
	}()
	net.Forward([]float64{1, 2}, nil)
}

func TestForwardPanicsOnUnexpectedAux(t *testing.T) {
	net := newTestNet(t, Config{Sizes: []int{3, 2}, AuxLayer: -1}, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unexpected aux input")
		}
	}()
	net.Forward([]float64{1, 2, 3}, []float64{1})
}

// numericalGrad computes d loss/d theta by central differences for the
// given parameter accessor.
func numericalGrad(f func() float64, get func() float64, set func(float64)) float64 {
	const h = 1e-5
	orig := get()
	set(orig + h)
	up := f()
	set(orig - h)
	down := f()
	set(orig)
	return (up - down) / (2 * h)
}

// TestBackwardMatchesNumericalGradient is the core correctness test for the
// whole package: analytic backprop gradients must agree with central
// differences for every parameter, across activations and aux injection.
func TestBackwardMatchesNumericalGradient(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		aux  bool
	}{
		{"relu-identity", Config{Sizes: []int{3, 6, 2}, Hidden: ReLU{}, Output: Identity{}, AuxLayer: -1}, false},
		{"tanh-identity", Config{Sizes: []int{3, 6, 6, 2}, Hidden: Tanh{}, Output: Identity{}, AuxLayer: -1}, false},
		{"tanh-softmax", Config{Sizes: []int{4, 8, 3}, Hidden: Tanh{}, Output: Softmax{}, AuxLayer: -1}, false},
		{"sigmoid-identity", Config{Sizes: []int{3, 5, 2}, Hidden: Sigmoid{}, Output: Identity{}, AuxLayer: -1}, false},
		{"critic-aux", Config{Sizes: []int{3, 6, 6, 1}, Hidden: Tanh{}, Output: Identity{}, AuxLayer: 1, AuxDim: 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			net := NewNetwork(tc.cfg, rng)
			x := make([]float64, net.InDim())
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			var aux []float64
			if tc.aux {
				aux = make([]float64, net.AuxDim)
				for i := range aux {
					aux[i] = rng.NormFloat64()
				}
			}
			target := make([]float64, net.OutDim())
			for i := range target {
				target[i] = rng.NormFloat64()
			}

			loss := func() float64 {
				pred := net.Forward(x, aux)
				d := make([]float64, len(pred))
				return MSE(d, pred, target)
			}

			// Analytic gradients.
			cache := NewCache(net)
			pred := net.ForwardCache(cache, x, aux)
			dOut := make([]float64, len(pred))
			MSE(dOut, pred, target)
			g := NewGrads(net)
			net.Backward(cache, dOut, g)

			const tol = 1e-6
			for l, layer := range net.Layers {
				for i := range layer.W.Data {
					num := numericalGrad(loss,
						func() float64 { return layer.W.Data[i] },
						func(v float64) { layer.W.Data[i] = v })
					if math.Abs(num-g.W[l].Data[i]) > tol {
						t.Fatalf("layer %d W[%d]: analytic %g vs numeric %g", l, i, g.W[l].Data[i], num)
					}
				}
				for i := range layer.B {
					num := numericalGrad(loss,
						func() float64 { return layer.B[i] },
						func(v float64) { layer.B[i] = v })
					if math.Abs(num-g.B[l][i]) > tol {
						t.Fatalf("layer %d B[%d]: analytic %g vs numeric %g", l, i, g.B[l][i], num)
					}
				}
			}
		})
	}
}

// TestBackwardInputGradients checks dX and dAux against central differences.
func TestBackwardInputGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(Config{
		Sizes: []int{3, 8, 8, 1}, Hidden: Tanh{}, Output: Identity{},
		AuxLayer: 1, AuxDim: 2,
	}, rng)
	x := []float64{0.3, -0.7, 1.1}
	aux := []float64{0.5, -0.2}
	target := []float64{0.9}

	loss := func() float64 {
		pred := net.Forward(x, aux)
		d := make([]float64, 1)
		return MSE(d, pred, target)
	}

	cache := NewCache(net)
	pred := net.ForwardCache(cache, x, aux)
	dOut := make([]float64, 1)
	MSE(dOut, pred, target)
	g := NewGrads(net)
	dX, dAux := net.Backward(cache, dOut, g)

	const tol = 1e-6
	for i := range x {
		num := numericalGrad(loss,
			func() float64 { return x[i] },
			func(v float64) { x[i] = v })
		if math.Abs(num-dX[i]) > tol {
			t.Fatalf("dX[%d]: analytic %g vs numeric %g", i, dX[i], num)
		}
	}
	for i := range aux {
		num := numericalGrad(loss,
			func() float64 { return aux[i] },
			func(v float64) { aux[i] = v })
		if math.Abs(num-dAux[i]) > tol {
			t.Fatalf("dAux[%d]: analytic %g vs numeric %g", i, dAux[i], num)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	net := newTestNet(t, Config{Sizes: []int{2, 4, 2}, AuxLayer: -1}, 8)
	clone := net.Clone()
	clone.Layers[0].W.Data[0] += 100
	if net.Layers[0].W.Data[0] == clone.Layers[0].W.Data[0] {
		t.Fatal("Clone shares weight storage")
	}
	clone.Layers[0].B[0] += 100
	if net.Layers[0].B[0] == clone.Layers[0].B[0] {
		t.Fatal("Clone shares bias storage")
	}
}

func TestSoftUpdateMovesTowardSource(t *testing.T) {
	a := newTestNet(t, Config{Sizes: []int{2, 3, 1}, AuxLayer: -1}, 9)
	b := newTestNet(t, Config{Sizes: []int{2, 3, 1}, AuxLayer: -1}, 10)
	orig := a.Layers[0].W.At(0, 0)
	src := b.Layers[0].W.At(0, 0)
	a.SoftUpdateFrom(b, 0.25)
	want := 0.75*orig + 0.25*src
	if got := a.Layers[0].W.At(0, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("soft update got %g, want %g", got, want)
	}
	// tau=1 must copy exactly.
	a.SoftUpdateFrom(b, 1)
	if got := a.Layers[0].W.At(0, 0); got != src {
		t.Fatalf("tau=1 soft update got %g, want %g", got, src)
	}
}

func TestCopyParamsFrom(t *testing.T) {
	a := newTestNet(t, Config{Sizes: []int{2, 3, 1}, AuxLayer: -1}, 11)
	b := newTestNet(t, Config{Sizes: []int{2, 3, 1}, AuxLayer: -1}, 12)
	a.CopyParamsFrom(b)
	x := []float64{0.4, -1.3}
	ay, by := a.Forward(x, nil), b.Forward(x, nil)
	if ay[0] != by[0] {
		t.Fatal("CopyParamsFrom did not make networks identical")
	}
}

func TestPerturbFromChangesOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := NewNetwork(Config{Sizes: []int{3, 16, 2}, AuxLayer: -1}, rng)
	perturbed := src.Clone()
	perturbed.PerturbFrom(src, 0.1, rng)
	x := []float64{1, 2, 3}
	a, b := src.Forward(x, nil), perturbed.Forward(x, nil)
	if mat.VecDist(a, b) == 0 {
		t.Fatal("perturbation left outputs identical")
	}
	// Zero sigma must leave parameters identical.
	perturbed.PerturbFrom(src, 0, rng)
	c := perturbed.Forward(x, nil)
	if mat.VecDist(a, c) != 0 {
		t.Fatal("sigma=0 perturbation changed outputs")
	}
}

func TestMismatchedArchitecturesPanic(t *testing.T) {
	a := newTestNet(t, Config{Sizes: []int{2, 3, 1}, AuxLayer: -1}, 15)
	b := newTestNet(t, Config{Sizes: []int{2, 4, 1}, AuxLayer: -1}, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for architecture mismatch")
		}
	}()
	a.SoftUpdateFrom(b, 0.5)
}

// Property: gradient accumulation is additive — backprop of the same example
// twice yields exactly double the gradients.
func TestGradientAccumulationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := NewNetwork(Config{Sizes: []int{3, 5, 2}, Hidden: Tanh{}, AuxLayer: -1}, rng)
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		dOut := []float64{rng.NormFloat64(), rng.NormFloat64()}
		cache := NewCache(net)
		net.ForwardCache(cache, x, nil)
		g1 := NewGrads(net)
		net.Backward(cache, dOut, g1)
		g2 := NewGrads(net)
		net.Backward(cache, dOut, g2)
		net.Backward(cache, dOut, g2)
		for l := range g1.W {
			doubled := g1.W[l].Clone()
			doubled.Scale(2)
			if !doubled.Equal(g2.W[l], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: ScaleClip scales, then caps the global norm and preserves
// direction; unclipped, every entry is exactly its scaled value.
func TestScaleClipProperty(t *testing.T) {
	norm := func(g *Grads) float64 {
		var sum float64
		for l := range g.W {
			for _, v := range g.W[l].Data {
				sum += v * v
			}
			for _, v := range g.B[l] {
				sum += v * v
			}
		}
		return math.Sqrt(sum)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := NewNetwork(Config{Sizes: []int{2, 4, 1}, AuxLayer: -1}, rng)
		g := NewGrads(net)
		for l := range g.W {
			for i := range g.W[l].Data {
				g.W[l].Data[i] = rng.NormFloat64() * 10
			}
			for i := range g.B[l] {
				g.B[l][i] = rng.NormFloat64() * 10
			}
		}
		s := []float64{1, 0.25, 1.0 / 64}[rng.Intn(3)]
		w0 := g.W[0].Data[0] * s
		before := norm(g) * s
		clipped := g.ScaleClip(s, 1.0)
		after := norm(g)
		if before > 1+1e-9 {
			return clipped && math.Abs(after-1) < 1e-9
		}
		return !clipped && math.Abs(after-before) < 1e-12 && g.W[0].Data[0] == w0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
