package nn

import (
	"math"
	"math/rand"
	"testing"

	"miras/internal/mat"
)

// scalarTanh is Tanh with the lanes off: math.Tanh element by element.
type scalarTanh struct{ Tanh }

func (scalarTanh) Apply(out, pre, b []float64) {
	for i, v := range pre {
		out[i] = math.Tanh(v + b[i])
	}
}

// TestTanhLayerLanesMatchScalar checks that tanh layers at the benchmark's
// width and the paper's MSD and LIGO widths give bit-identical ForwardBatch
// and ForwardCache outputs whether their tanh runs mat.TanhTo (lanes, where
// the CPU has them) or math.Tanh per element: a critic-shaped network, aux
// input included, whose every layer is tanh, with random biases and inputs
// wide enough to reach both of tanh's branches.
func TestTanhLayerLanesMatchScalar(t *testing.T) {
	for _, width := range []int{64, 256, 512} {
		rng := rand.New(rand.NewSource(int64(width)))
		lanes := NewNetwork(Config{
			Sizes: []int{12, width, width, 5}, Hidden: Tanh{}, Output: Tanh{},
			AuxLayer: 1, AuxDim: 4,
		}, rng)
		for _, layer := range lanes.Layers {
			for i := range layer.B {
				layer.B[i] = rng.NormFloat64()
			}
		}
		scalar := lanes.Clone()
		for _, layer := range scalar.Layers {
			layer.Act = scalarTanh{}
		}
		const batch = 9
		x := mat.NewRandn(batch, 12, 3, rng)
		aux := mat.NewRandn(batch, 4, 3, rng)
		got := lanes.ForwardBatch(NewBatchCache(lanes, batch), x, aux)
		want := scalar.ForwardBatch(NewBatchCache(scalar, batch), x, aux)
		lc, sc := NewCache(lanes), NewCache(scalar)
		for i := 0; i < batch; i++ {
			rowGot, rowWant := got.Row(i), want.Row(i)
			cacheGot := lanes.ForwardCache(lc, x.Row(i), aux.Row(i))
			cacheWant := scalar.ForwardCache(sc, x.Row(i), aux.Row(i))
			for j := range rowWant {
				if math.Float64bits(rowGot[j]) != math.Float64bits(rowWant[j]) {
					t.Fatalf("width %d: ForwardBatch[%d][%d] = %v with lanes, %v with math.Tanh", width, i, j, rowGot[j], rowWant[j])
				}
				if math.Float64bits(cacheGot[j]) != math.Float64bits(cacheWant[j]) {
					t.Fatalf("width %d: ForwardCache sample %d [%d] = %v with lanes, %v with math.Tanh", width, i, j, cacheGot[j], cacheWant[j])
				}
			}
		}
	}
}
