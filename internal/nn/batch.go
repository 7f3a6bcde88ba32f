package nn

import (
	"fmt"

	"miras/internal/mat"
)

// BatchCache stores the intermediate activations of one batched forward
// pass — one matrix per layer, one row per sample — so BackwardBatch can
// compute gradients for a whole minibatch with GEMM-shaped kernels per
// layer instead of per-sample vector work. A BatchCache is created for a
// fixed batch size and may be reused across passes through the same
// network without allocating.
type BatchCache struct {
	batch int
	// inputs[l] is the (possibly aux-extended) batch×InDim(l) input fed to
	// layer l; outputs[l] is the batch×OutDim(l) post-activation output.
	// Every layer's input but layer 0's and AuxLayer's is the previous
	// layer's output matrix itself, not a copy.
	inputs  []*mat.Matrix
	outputs []*mat.Matrix
	// dPre is scratch for the pre-activation gradients.
	dPre []*mat.Matrix
	// dIn[l] is scratch for layer l's input gradient, the gradient of
	// layer l−1's output: nil for layer 0, whose input gradient no caller
	// reads, and only the primary columns at AuxLayer.
	dIn []*mat.Matrix
	// dGrad is scratch for the incoming output gradient.
	dGrad *mat.Matrix
	// dAux is AuxGradBatch's gradient with respect to the auxiliary input
	// (nil when the network has none).
	dAux *mat.Matrix
	// eps[l] is the reusable fused bias+activation epilogue descriptor for
	// layer l; its fields are (re)bound to the layer's parameters on every
	// ForwardBatch, so a cache works with any same-shaped network.
	eps []biasActEpilogue
	// wPack[l] is the persistent packing buffer for what the backward
	// passes' input-gradient GEMMs pack of layer l's weight matrix — its
	// short last panel on the lane tiles, which read the rest in place,
	// or the transposed window on the pure-Go and narrow kernels —
	// grown on first use and kept off the shared scratch pool.
	wPack [][]float64
}

// biasActEpilogue is the fused GEMM epilogue: the activation of each
// completed output row plus the layer bias, in one pass while the row is
// cache-hot. Activations are applied row-wise, so elementwise activations
// are unaffected by the batching and vectorwise ones (Softmax) normalise
// per sample as they must. ApplyRow may run on kernel-pool workers; it
// only writes its own row and reads the shared bias/activation, which are
// immutable during a pass.
type biasActEpilogue struct {
	b   []float64
	act Activation
}

func (e *biasActEpilogue) ApplyRow(_ int, row []float64) { e.act.Apply(row, row, e.b) }

// NewBatchCache allocates a cache for running batches of the given size
// through network n.
func NewBatchCache(n *Network, batch int) *BatchCache {
	if batch <= 0 {
		panic(fmt.Sprintf("nn: batch size %d must be positive", batch))
	}
	c := &BatchCache{batch: batch}
	for l, layer := range n.Layers {
		var in, dIn *mat.Matrix
		switch {
		case l == n.AuxLayer:
			in = mat.New(batch, layer.InDim())
			if l > 0 {
				dIn = mat.New(batch, layer.InDim()-n.AuxDim)
			}
		case l == 0:
			in = mat.New(batch, layer.InDim())
		default:
			in, dIn = c.outputs[l-1], mat.New(batch, layer.InDim())
		}
		c.inputs = append(c.inputs, in)
		c.outputs = append(c.outputs, mat.New(batch, layer.OutDim()))
		c.dPre = append(c.dPre, mat.New(batch, layer.OutDim()))
		c.dIn = append(c.dIn, dIn)
	}
	c.wPack = make([][]float64, len(n.Layers))
	c.eps = make([]biasActEpilogue, len(n.Layers))
	c.dGrad = mat.New(batch, n.OutDim())
	if n.AuxLayer >= 0 {
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
		switch {
		case l == n.AuxLayer:
			for r := 0; r < c.batch; r++ {
				row := in.Row(r)
				copy(row, cur.Row(r))
				copy(row[cur.Cols:], aux.Row(r))
			}
		case l == 0:
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
// entry. It forms no gradient with respect to the inputs: below layer 0
// there is nothing to train, and at AuxLayer it forms only the columns that
// feed the layer below. AuxGradBatch gives the gradient with respect to the
// auxiliary input.
func (n *Network) BackwardBatch(c *BatchCache, dOut *mat.Matrix, g *Grads) {
	dCur := n.startBackward(c, dOut)
	for l := len(n.Layers) - 1; l >= 0; l-- {
		layer := n.Layers[l]
		// dPre and the bias gradient dB += column sums of dPre in one
		// pass, then dW += dPreᵀ · inputs (batched rank-k update).
		dPre := c.actBackprop(l, layer.Act, dCur, g.B[l])
		g.W[l].AddMulATBScaled(dPre, c.inputs[l], 1)
		if l == 0 {
			break
		}
		// Input gradient: dIn = dPre · W, over the primary columns only at
		// AuxLayer, packing what W needs packed into the cache's persistent
		// per-layer buffer (no pool traffic, no allocations).
		dIn := c.dIn[l]
		if l == n.AuxLayer {
			dIn.MulColsToBuf(dPre, layer.W, 0, &c.wPack[l])
		} else {
			dIn.MulToBuf(dPre, layer.W, &c.wPack[l], nil)
		}
		dCur = dIn
	}
}

// AuxGradBatch backpropagates dOut from the output down to the auxiliary
// input only and returns the batch×AuxDim gradient with respect to aux —
// the critic's ∂Q/∂a in the DDPG actor pass. It accumulates no parameter
// gradients, stops at AuxLayer, and there forms only the AuxDim columns of
// dPre · W. Row i equals the dAux of Backward on sample i. The matrix
// aliases cache storage and is valid until the next backward pass through
// c.
func (n *Network) AuxGradBatch(c *BatchCache, dOut *mat.Matrix) *mat.Matrix {
	if n.AuxLayer < 0 {
		panic("nn: AuxGradBatch on network without AuxLayer")
	}
	dCur := n.startBackward(c, dOut)
	for l := len(n.Layers) - 1; l > n.AuxLayer; l-- {
		layer := n.Layers[l]
		dIn := c.dIn[l]
		dIn.MulToBuf(c.actBackprop(l, layer.Act, dCur, nil), layer.W, &c.wPack[l], nil)
		dCur = dIn
	}
	layer := n.Layers[n.AuxLayer]
	dPre := c.actBackprop(n.AuxLayer, layer.Act, dCur, nil)
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
// the gradient dCur with respect to its output, and returns it; unless dB
// is nil it adds the rows into dB in ascending order, the bias gradient.
func (c *BatchCache) actBackprop(l int, act Activation, dCur *mat.Matrix, dB []float64) *mat.Matrix {
	dPre := c.dPre[l]
	for r := 0; r < c.batch; r++ {
		act.Backprop(dPre.Row(r), c.outputs[l].Row(r), dCur.Row(r), dB)
	}
	return dPre
}
