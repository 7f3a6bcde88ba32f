package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"miras/internal/mat"
	"miras/internal/parallel"
)

// TestBatchPassesBitIdenticalAcrossWorkers runs a full forward+backward
// minibatch pass, and for the critic-shaped network the aux-only backward
// too, under several parallel worker bounds and requires every output and
// accumulated gradient to be byte-for-byte identical — the end-to-end
// version of the mat package's kernel-level determinism test, covering the
// fused bias+activation epilogue on pool workers — and the aux gradient to
// equal the per-sample Backward's dAux. At batch 48 the 256×256 products
// (2·48·256·256 ≈ 2²²·⁶ flops, including the critic's layer-2 input
// gradient inside AuxGradBatch) reach the pool, and the 12-, 5-, 4- and
// 1-wide ones (≤ 2¹⁸·²) stay below the 2²² dispatch threshold.
func TestBatchPassesBitIdenticalAcrossWorkers(t *testing.T) {
	defer parallel.SetMaxWorkers(0)
	rng := rand.New(rand.NewSource(31))
	const batch = 48
	for _, cfg := range []Config{
		{Sizes: []int{12, 256, 256, 5}, Hidden: Tanh{}, Output: Softmax{}, AuxLayer: -1},
		{Sizes: []int{12, 256, 256, 256, 1}, Hidden: Tanh{}, Output: Identity{}, AuxLayer: 1, AuxDim: 4},
	} {
		net := NewNetwork(cfg, rng)
		x := mat.NewRandn(batch, net.InDim(), 1, rng)
		dOut := mat.NewRandn(batch, net.OutDim(), 1, rng)
		var aux *mat.Matrix
		if cfg.AuxLayer >= 0 {
			aux = mat.NewRandn(batch, cfg.AuxDim, 1, rng)
		}

		// Each worker count's results, flattened in a fixed order: the
		// output, every dW and dB, then (with an aux input) the
		// AuxGradBatch dAux, which must also equal the per-sample
		// Backward's.
		results := map[int][][]float64{}
		for _, w := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
			parallel.SetMaxWorkers(w)
			c := NewBatchCache(net, batch)
			g := NewGrads(net)
			res := [][]float64{clone(net.ForwardBatch(c, x, aux).Data)}
			net.BackwardBatch(c, dOut, g)
			for l := range g.W {
				res = append(res, g.W[l].Data, g.B[l])
			}
			if aux != nil {
				res = append(res, clone(net.AuxGradBatch(c, dOut).Data))
				if msg := auxGradMismatch(net, x, aux, dOut); msg != "" {
					t.Fatalf("sizes %v, %d workers: %s", cfg.Sizes, w, msg)
				}
			}
			results[w] = res
		}

		ref := results[1]
		for w, res := range results {
			for i := range ref {
				for j, v := range res[i] {
					if v != ref[i][j] {
						t.Fatalf("sizes %v: result %d entry %d differs between 1 and %d workers", cfg.Sizes, i, j, w)
					}
				}
			}
		}
	}
}

func clone(vs []float64) []float64 { return append([]float64(nil), vs...) }
