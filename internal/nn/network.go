package nn

import (
	"fmt"
	"math"
	"math/rand"

	"miras/internal/mat"
)

// Dense is one fully connected layer: out = act(W·in + b).
type Dense struct {
	// W is the out×in weight matrix.
	W *mat.Matrix
	// B is the bias vector, one entry per output unit.
	B []float64
	// Act is the layer's activation.
	Act Activation
}

// InDim returns the layer's input dimension.
func (d *Dense) InDim() int { return d.W.Cols }

// OutDim returns the layer's output dimension.
func (d *Dense) OutDim() int { return d.W.Rows }

// Network is a multilayer perceptron with an optional auxiliary input
// injected at one layer. When AuxLayer ≥ 0, layer AuxLayer receives the
// concatenation of the previous layer's output and the auxiliary vector —
// the construction the paper uses for the DDPG critic, which takes the
// action at its second layer.
type Network struct {
	// Layers are the dense layers in forward order.
	Layers []*Dense
	// AuxLayer is the index of the layer that receives the auxiliary input
	// appended to its regular input, or -1 if the network has no auxiliary
	// input.
	AuxLayer int
	// AuxDim is the auxiliary input dimension (0 if AuxLayer < 0).
	AuxDim int
}

// Config describes a Network for construction by NewNetwork.
type Config struct {
	// Sizes lists the layer widths from input to output, e.g.
	// {8, 20, 20, 4} builds a network with two 20-unit hidden layers.
	Sizes []int
	// Hidden is the activation for every layer except the last. Defaults
	// to ReLU when nil.
	Hidden Activation
	// Output is the activation of the final layer. Defaults to Identity
	// when nil.
	Output Activation
	// AuxLayer, if ≥ 0, is the layer index that receives an auxiliary
	// input of dimension AuxDim concatenated to its regular input.
	AuxLayer int
	// AuxDim is the auxiliary input width; must be > 0 iff AuxLayer ≥ 0.
	AuxDim int
}

// NewNetwork builds a randomly initialised network. Layers with ReLU
// activations use He initialisation; all other layers use Xavier.
func NewNetwork(cfg Config, rng *rand.Rand) *Network {
	if len(cfg.Sizes) < 2 {
		panic(fmt.Sprintf("nn: need at least input and output sizes, got %v", cfg.Sizes))
	}
	hidden := cfg.Hidden
	if hidden == nil {
		hidden = ReLU{}
	}
	output := cfg.Output
	if output == nil {
		output = Identity{}
	}
	auxLayer, auxDim := cfg.AuxLayer, cfg.AuxDim
	if auxLayer < 0 {
		auxDim = 0
	}
	if auxLayer >= 0 && auxDim <= 0 {
		panic("nn: AuxLayer set but AuxDim is not positive")
	}
	nLayers := len(cfg.Sizes) - 1
	if auxLayer >= nLayers {
		panic(fmt.Sprintf("nn: AuxLayer %d out of range for %d layers", auxLayer, nLayers))
	}
	net := &Network{AuxLayer: -1}
	if auxLayer >= 0 {
		net.AuxLayer = auxLayer
		net.AuxDim = auxDim
	}
	for l := 0; l < nLayers; l++ {
		in, out := cfg.Sizes[l], cfg.Sizes[l+1]
		if l == auxLayer {
			in += auxDim
		}
		act := hidden
		if l == nLayers-1 {
			act = output
		}
		var w *mat.Matrix
		if _, isReLU := act.(ReLU); isReLU {
			w = mat.NewHe(out, in, in, rng)
		} else {
			w = mat.NewXavier(out, in, rng)
		}
		net.Layers = append(net.Layers, &Dense{W: w, B: make([]float64, out), Act: act})
	}
	return net
}

// InDim returns the primary input dimension.
func (n *Network) InDim() int {
	in := n.Layers[0].InDim()
	if n.AuxLayer == 0 {
		in -= n.AuxDim
	}
	return in
}

// OutDim returns the output dimension.
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].OutDim() }

// Cache stores the intermediate activations of one forward pass so Backward
// can compute gradients. A Cache may be reused across passes through the
// same network to avoid allocation.
type Cache struct {
	// inputs[l] is the (possibly aux-extended) input vector fed to layer l.
	inputs [][]float64
	// outputs[l] is the post-activation output of layer l.
	outputs [][]float64
	// dPre is scratch for the pre-activation gradient, one slice per layer.
	dPre [][]float64
	// dIn is scratch for the input gradient, one slice per layer.
	dIn [][]float64
	// dGrad is scratch for the incoming output gradient.
	dGrad []float64
	// panels, when non-nil, holds every layer's weights packed for the
	// lane mat-vec kernel (PackVecPanels); forward passes multiply
	// through them instead of the layers' matrices.
	panels []*mat.VecPanels
}

// NewCache allocates a cache sized for network n.
func NewCache(n *Network) *Cache {
	c := &Cache{
		inputs:  make([][]float64, len(n.Layers)),
		outputs: make([][]float64, len(n.Layers)),
		dPre:    make([][]float64, len(n.Layers)),
		dIn:     make([][]float64, len(n.Layers)),
	}
	for l, layer := range n.Layers {
		c.inputs[l] = make([]float64, layer.InDim())
		c.outputs[l] = make([]float64, layer.OutDim())
		c.dPre[l] = make([]float64, layer.OutDim())
		c.dIn[l] = make([]float64, layer.InDim())
	}
	c.dGrad = make([]float64, n.OutDim())
	return c
}

// PackVecPanels packs every layer's weights for the lane mat-vec kernel
// (mat.PackVecPanels), or returns nil when the lane kernels are off. The
// panels copy the weights as they are now, so only a network that no
// longer changes — a frozen policy — may be run through them.
func (n *Network) PackVecPanels() []*mat.VecPanels {
	var panels []*mat.VecPanels
	for _, layer := range n.Layers {
		p := mat.PackVecPanels(layer.W)
		if p == nil {
			return nil
		}
		panels = append(panels, p)
	}
	return panels
}

// NewPanelCache is NewCache for forward passes through panels, which
// n.PackVecPanels packed (nil leaves the layers' matrices as the kernel).
// Caches may share one set of panels: passes only read them.
func NewPanelCache(n *Network, panels []*mat.VecPanels) *Cache {
	c := NewCache(n)
	c.panels = panels
	return c
}

// Panels returns the packed weights this cache's forward passes multiply
// through, or nil.
func (c *Cache) Panels() []*mat.VecPanels { return c.panels }

// Output returns the final layer's output from the most recent forward pass
// through this cache. The slice aliases cache storage.
func (c *Cache) Output() []float64 { return c.outputs[len(c.outputs)-1] }

// Forward runs the network on x (and aux, if the network has an auxiliary
// input; pass nil otherwise) and returns the output as a fresh slice.
func (n *Network) Forward(x, aux []float64) []float64 {
	c := NewCache(n)
	n.ForwardCache(c, x, aux)
	return mat.VecClone(c.Output())
}

// ForwardCache runs the network on x (and aux) storing intermediates in c.
// The returned slice aliases the cache and is valid until the next pass.
func (n *Network) ForwardCache(c *Cache, x, aux []float64) []float64 {
	if n.AuxLayer >= 0 {
		if len(aux) != n.AuxDim {
			panic(fmt.Sprintf("nn: aux length %d != AuxDim %d", len(aux), n.AuxDim))
		}
	} else if aux != nil {
		panic("nn: aux input passed to network without AuxLayer")
	}
	cur := x
	for l, layer := range n.Layers {
		in := c.inputs[l]
		if l == n.AuxLayer {
			if len(cur)+len(aux) != layer.InDim() {
				panic(fmt.Sprintf("nn: layer %d input %d+aux %d != %d", l, len(cur), len(aux), layer.InDim()))
			}
			copy(in, cur)
			copy(in[len(cur):], aux)
		} else {
			if len(cur) != layer.InDim() {
				panic(fmt.Sprintf("nn: layer %d input length %d != %d", l, len(cur), layer.InDim()))
			}
			copy(in, cur)
		}
		out := c.outputs[l]
		if c.panels != nil {
			c.panels[l].MulVecTo(out, in)
		} else {
			layer.W.MulVecTo(out, in)
		}
		layer.Act.Apply(out, out, layer.B)
		cur = out
	}
	return cur
}

// Grads accumulates parameter gradients for a Network. Layout parallels the
// network's layers.
type Grads struct {
	// W[l] accumulates the weight gradient of layer l.
	W []*mat.Matrix
	// B[l] accumulates the bias gradient of layer l.
	B [][]float64
}

// NewGrads allocates a zeroed gradient accumulator shaped like n.
func NewGrads(n *Network) *Grads {
	g := &Grads{}
	for _, layer := range n.Layers {
		g.W = append(g.W, mat.New(layer.OutDim(), layer.InDim()))
		g.B = append(g.B, make([]float64, layer.OutDim()))
	}
	return g
}

// Zero clears all accumulated gradients.
func (g *Grads) Zero() {
	for l := range g.W {
		g.W[l].Zero()
		for i := range g.B[l] {
			g.B[l][i] = 0
		}
	}
}

// ScaleClip multiplies every accumulated gradient by s, then rescales them
// so their global Euclidean norm is at most maxNorm, and reports whether
// it clipped. The scaled entries are squared and summed in the same pass
// — layer by layer, weights then bias, each in storage order — so a
// gradient is walked once unless it is clipped.
func (g *Grads) ScaleClip(s, maxNorm float64) bool {
	var sum float64
	for l := range g.W {
		sum = scaleSumSquares(g.W[l].Data, s, sum)
		sum = scaleSumSquares(g.B[l], s, sum)
	}
	norm := math.Sqrt(sum)
	if norm <= maxNorm || norm == 0 {
		return false
	}
	c := maxNorm / norm
	for l := range g.W {
		g.W[l].Scale(c)
		mat.VecScale(g.B[l], c)
	}
	return true
}

// scaleSumSquares multiplies x by s in place, unless s is 1, and returns
// sum plus the squares of the scaled entries, added in order.
func scaleSumSquares(x []float64, s, sum float64) float64 {
	if s == 1 {
		for _, v := range x {
			sum += v * v
		}
		return sum
	}
	for i, v := range x {
		v *= s
		x[i] = v
		sum += v * v
	}
	return sum
}

// Backward backpropagates dOut — the gradient of the loss with respect to
// the network output of the forward pass recorded in c — accumulating
// parameter gradients into g (which must be pre-allocated with NewGrads and
// is NOT zeroed here, so minibatch gradients can be summed). It returns the
// gradient with respect to the primary input x and, when the network has an
// auxiliary input, with respect to aux (nil otherwise). The returned slices
// alias cache scratch and are valid until the next Backward through c.
func (n *Network) Backward(c *Cache, dOut []float64, g *Grads) (dX, dAux []float64) {
	last := len(n.Layers) - 1
	if len(dOut) != n.Layers[last].OutDim() {
		panic(fmt.Sprintf("nn: dOut length %d != output dim %d", len(dOut), n.Layers[last].OutDim()))
	}
	dCur := c.dGrad
	copy(dCur, dOut)
	for l := last; l >= 0; l-- {
		layer := n.Layers[l]
		dPre := c.dPre[l]
		// dPre and the bias gradient dB += dPre in one pass, then
		// dW += dPre ⊗ input.
		layer.Act.Backprop(dPre, c.outputs[l], dCur, g.B[l])
		g.W[l].AddOuterScaled(dPre, c.inputs[l], 1)
		// Input gradient: dIn = Wᵀ · dPre.
		dIn := c.dIn[l]
		layer.W.MulVecTransTo(dIn, dPre)
		if l == n.AuxLayer {
			split := layer.InDim() - n.AuxDim
			dAux = dIn[split:]
			dIn = dIn[:split]
		}
		dCur = dIn
	}
	return dCur, dAux
}

// Clone returns a deep copy of the network (same architecture, copied
// parameters). Used to create target networks.
func (n *Network) Clone() *Network {
	out := &Network{AuxLayer: n.AuxLayer, AuxDim: n.AuxDim}
	for _, layer := range n.Layers {
		out.Layers = append(out.Layers, &Dense{
			W:   layer.W.Clone(),
			B:   mat.VecClone(layer.B),
			Act: layer.Act,
		})
	}
	return out
}

// CopyParamsFrom overwrites n's parameters with src's. Architectures must
// match.
func (n *Network) CopyParamsFrom(src *Network) {
	n.mustMatch(src)
	for l, layer := range n.Layers {
		layer.W.CopyFrom(src.Layers[l].W)
		copy(layer.B, src.Layers[l].B)
	}
}

// SoftUpdateFrom moves n's parameters toward src's by fraction tau:
// θ ← (1−τ)·θ + τ·θ_src. This is the DDPG target-network update.
func (n *Network) SoftUpdateFrom(src *Network, tau float64) {
	n.mustMatch(src)
	for l, layer := range n.Layers {
		mat.SoftUpdate(layer.W.Data, src.Layers[l].W.Data, tau)
		mat.SoftUpdate(layer.B, src.Layers[l].B, tau)
	}
}

// PerturbFrom sets n's parameters to src's plus i.i.d. Gaussian noise with
// standard deviation sigma. This implements parameter-space exploration:
// the perturbed copy acts in the environment while src is trained.
func (n *Network) PerturbFrom(src *Network, sigma float64, rng *rand.Rand) {
	n.mustMatch(src)
	for l, layer := range n.Layers {
		srcLayer := src.Layers[l]
		for i := range layer.W.Data {
			layer.W.Data[i] = srcLayer.W.Data[i] + rng.NormFloat64()*sigma
		}
		for i := range layer.B {
			layer.B[i] = srcLayer.B[i] + rng.NormFloat64()*sigma
		}
	}
}

func (n *Network) mustMatch(src *Network) {
	if len(n.Layers) != len(src.Layers) {
		panic(fmt.Sprintf("nn: network layer count mismatch %d vs %d", len(n.Layers), len(src.Layers)))
	}
	for l, layer := range n.Layers {
		s := src.Layers[l]
		if layer.InDim() != s.InDim() || layer.OutDim() != s.OutDim() {
			panic(fmt.Sprintf("nn: layer %d shape mismatch %dx%d vs %dx%d",
				l, layer.OutDim(), layer.InDim(), s.OutDim(), s.InDim()))
		}
	}
}
