package nn

import (
	"fmt"

	"miras/internal/mat"
)

// BatchCache stores the intermediate activations of one batched forward
// pass — one matrix per layer, one row per sample — so BackwardBatch can
// compute gradients for a whole minibatch with three GEMM-shaped kernels
// per layer instead of per-sample vector work. A BatchCache is created for
// a fixed batch size and may be reused across passes through the same
// network without allocating.
type BatchCache struct {
	batch int
	// inputs[l] is the (possibly aux-extended) batch×InDim(l) input fed to
	// layer l; outputs[l] is the batch×OutDim(l) post-activation output.
	inputs  []*mat.Matrix
	outputs []*mat.Matrix
	// dPre and dIn are scratch for the pre-activation and input gradients.
	dPre []*mat.Matrix
	dIn  []*mat.Matrix
	// dGrad is scratch for the incoming output gradient.
	dGrad *mat.Matrix
	// dXSplit and dAux split the aux layer's input gradient into its
	// primary and auxiliary parts (nil when the network has no aux input).
	dXSplit *mat.Matrix
	dAux    *mat.Matrix
	// eps[l] is the reusable fused bias+activation epilogue descriptor for
	// layer l; its fields are (re)bound to the layer's parameters on every
	// ForwardBatch, so a cache works with any same-shaped network.
	eps []biasActEpilogue
	// wPack[l] is the persistent packing buffer for layer l's weight
	// matrix in the backward passes' input-gradient GEMMs (all of W in
	// BackwardBatch, the aux columns at AuxLayer in AuxGradBatch), keeping
	// them off the shared scratch pool (and allocation-free).
	wPack [][]float64
}

// biasActEpilogue is the fused GEMM epilogue: add the layer bias and apply
// the activation to each completed output row while it is cache-hot.
// Activations are applied row-wise, so elementwise activations are
// unaffected by the batching and vectorwise ones (Softmax) normalise per
// sample as they must. ApplyRow may run on kernel-pool workers; it only
// writes its own row and reads the shared bias/activation, which are
// immutable during a pass.
type biasActEpilogue struct {
	b   []float64
	act Activation
}

func (e *biasActEpilogue) ApplyRow(_ int, row []float64) {
	for j, bv := range e.b {
		row[j] += bv
	}
	e.act.Apply(row, row)
}

// NewBatchCache allocates a cache for running batches of the given size
// through network n.
func NewBatchCache(n *Network, batch int) *BatchCache {
	if batch <= 0 {
		panic(fmt.Sprintf("nn: batch size %d must be positive", batch))
	}
	c := &BatchCache{batch: batch}
	for _, layer := range n.Layers {
		c.inputs = append(c.inputs, mat.New(batch, layer.InDim()))
		c.outputs = append(c.outputs, mat.New(batch, layer.OutDim()))
		c.dPre = append(c.dPre, mat.New(batch, layer.OutDim()))
		c.dIn = append(c.dIn, mat.New(batch, layer.InDim()))
		c.wPack = append(c.wPack, make([]float64, layer.InDim()*layer.OutDim()))
	}
	c.eps = make([]biasActEpilogue, len(n.Layers))
	c.dGrad = mat.New(batch, n.OutDim())
	if n.AuxLayer >= 0 {
		split := n.Layers[n.AuxLayer].InDim() - n.AuxDim
		c.dXSplit = mat.New(batch, split)
		c.dAux = mat.New(batch, n.AuxDim)
	}
	return c
}

// Output returns the final layer's batch×OutDim output from the most
// recent ForwardBatch through this cache. The matrix aliases cache storage.
func (c *BatchCache) Output() *mat.Matrix { return c.outputs[len(c.outputs)-1] }

// ForwardBatch runs the network on a batch of inputs — x is batch×InDim,
// one sample per row, and aux (nil for networks without an auxiliary
// input) is batch×AuxDim — storing intermediates in c. Row i of the
// returned batch×OutDim matrix equals ForwardCache on row i of x and aux;
// the matrix aliases cache storage and is valid until the next pass.
func (n *Network) ForwardBatch(c *BatchCache, x, aux *mat.Matrix) *mat.Matrix {
	if x.Rows != c.batch || x.Cols != n.InDim() {
		panic(fmt.Sprintf("nn: batch input %dx%d != %dx%d", x.Rows, x.Cols, c.batch, n.InDim()))
	}
	if n.AuxLayer >= 0 {
		if aux == nil || aux.Rows != c.batch || aux.Cols != n.AuxDim {
			panic(fmt.Sprintf("nn: batch aux must be %dx%d", c.batch, n.AuxDim))
		}
	} else if aux != nil {
		panic("nn: aux input passed to network without AuxLayer")
	}
	cur := x
	for l, layer := range n.Layers {
		in := c.inputs[l]
		if l == n.AuxLayer {
			for r := 0; r < c.batch; r++ {
				row := in.Row(r)
				copy(row, cur.Row(r))
				copy(row[cur.Cols:], aux.Row(r))
			}
		} else {
			in.CopyFrom(cur)
		}
		// One fused kernel per layer: GEMM with the bias add and activation
		// applied to each output row in the epilogue, eliminating two extra
		// passes over the batch×out output matrix.
		ep := &c.eps[l]
		ep.b, ep.act = layer.B, layer.Act
		out := c.outputs[l]
		out.MulTransEpilogueTo(in, layer.W, ep)
		cur = out
	}
	return cur
}

// BackwardBatch backpropagates dOut — one row per sample, the gradient of
// the loss with respect to the batched output recorded in c — accumulating
// parameter gradients into g (not zeroed here, as with Backward). For each
// memory location the minibatch is folded in ascending sample order, so the
// accumulated gradients match batch sequential Backward calls entry for
// entry. It returns the batched gradients with respect to the primary and
// auxiliary inputs (dAux is nil without an aux input); both alias cache
// storage and are valid until the next backward pass through c. Callers
// that need only dAux use AuxGradBatch.
func (n *Network) BackwardBatch(c *BatchCache, dOut *mat.Matrix, g *Grads) (dX, dAux *mat.Matrix) {
	dCur := n.startBackward(c, dOut)
	for l := len(n.Layers) - 1; l >= 0; l-- {
		layer := n.Layers[l]
		dPre := c.actBackprop(l, layer.Act, dCur)
		// Parameter gradients: dW += dPreᵀ · inputs (batched rank-k
		// update), dB += column sums of dPre.
		g.W[l].AddMulATBScaled(dPre, c.inputs[l], 1)
		dPre.AddColumnSumsScaled(g.B[l], 1)
		// Input gradient: dIn = dPre · W, packing W into the cache's
		// persistent per-layer buffer (no pool traffic, no allocations).
		dIn := c.dIn[l]
		dIn.MulToBuf(dPre, layer.W, &c.wPack[l], nil)
		if l == n.AuxLayer {
			split := layer.InDim() - n.AuxDim
			for r := 0; r < c.batch; r++ {
				row := dIn.Row(r)
				copy(c.dXSplit.Row(r), row[:split])
				copy(c.dAux.Row(r), row[split:])
			}
			dAux = c.dAux
			dCur = c.dXSplit
		} else {
			dCur = dIn
		}
	}
	return dCur, dAux
}

// AuxGradBatch backpropagates dOut from the output down to the auxiliary
// input only and returns the batch×AuxDim gradient with respect to aux —
// the critic's ∂Q/∂a in the DDPG actor pass. It accumulates no parameter
// gradients, stops at AuxLayer, and there forms only the AuxDim columns of
// dPre · W. Every entry is the same ascending dot product BackwardBatch
// computes, so the result equals BackwardBatch's dAux bit for bit. The
// matrix aliases cache storage and is valid until the next backward pass
// through c.
func (n *Network) AuxGradBatch(c *BatchCache, dOut *mat.Matrix) *mat.Matrix {
	if n.AuxLayer < 0 {
		panic("nn: AuxGradBatch on network without AuxLayer")
	}
	dCur := n.startBackward(c, dOut)
	for l := len(n.Layers) - 1; l > n.AuxLayer; l-- {
		layer := n.Layers[l]
		dIn := c.dIn[l]
		dIn.MulToBuf(c.actBackprop(l, layer.Act, dCur), layer.W, &c.wPack[l], nil)
		dCur = dIn
	}
	layer := n.Layers[n.AuxLayer]
	dPre := c.actBackprop(n.AuxLayer, layer.Act, dCur)
	c.dAux.MulColsToBuf(dPre, layer.W, layer.InDim()-n.AuxDim, &c.wPack[n.AuxLayer])
	return c.dAux
}

// startBackward checks dOut against the cache and copies it into the
// cache's output-gradient scratch, where a backward pass begins.
func (n *Network) startBackward(c *BatchCache, dOut *mat.Matrix) *mat.Matrix {
	if dOut.Rows != c.batch || dOut.Cols != n.OutDim() {
		panic(fmt.Sprintf("nn: batch dOut %dx%d != %dx%d", dOut.Rows, dOut.Cols, c.batch, n.OutDim()))
	}
	c.dGrad.CopyFrom(dOut)
	return c.dGrad
}

// actBackprop writes layer l's pre-activation gradient for the batch, given
// the gradient dCur with respect to its output, and returns it.
func (c *BatchCache) actBackprop(l int, act Activation, dCur *mat.Matrix) *mat.Matrix {
	dPre := c.dPre[l]
	for r := 0; r < c.batch; r++ {
		act.Backprop(dPre.Row(r), c.outputs[l].Row(r), dCur.Row(r))
	}
	return dPre
}
