package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"miras/internal/mat"
)

// randomNet builds a random small architecture from rng: 1–3 hidden layers
// of width 1–24, random activations, and (half the time) an auxiliary
// input injected at a random layer — covering the aux-input critic shape.
func randomNet(rng *rand.Rand) (*Network, int, int) {
	inDim := 1 + rng.Intn(8)
	outDim := 1 + rng.Intn(6)
	sizes := []int{inDim}
	for l, n := 0, 1+rng.Intn(3); l < n; l++ {
		sizes = append(sizes, 1+rng.Intn(24))
	}
	sizes = append(sizes, outDim)
	hiddens := []Activation{ReLU{}, Tanh{}, Sigmoid{}}
	outputs := []Activation{Identity{}, Softmax{}, Tanh{}}
	cfg := Config{
		Sizes:    sizes,
		Hidden:   hiddens[rng.Intn(len(hiddens))],
		Output:   outputs[rng.Intn(len(outputs))],
		AuxLayer: -1,
	}
	auxDim := 0
	if rng.Intn(2) == 0 {
		cfg.AuxLayer = rng.Intn(len(sizes) - 1)
		auxDim = 1 + rng.Intn(5)
		cfg.AuxDim = auxDim
	}
	return NewNetwork(cfg, rng), inDim, auxDim
}

func maxAbsDiff(a, b []float64) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestBatchMatchesPerSample is the sequential-equivalence property: for a
// random architecture and batch, ForwardBatch row i equals ForwardCache on
// sample i bit for bit, and the weight and bias gradients BackwardBatch
// accumulates equal the sum of N per-sample Backward calls within 1e-12.
func TestBatchMatchesPerSample(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, inDim, auxDim := randomNet(rng)
		batch := 1 + rng.Intn(9)
		outDim := net.OutDim()

		x := mat.NewRandn(batch, inDim, 1, rng)
		var aux *mat.Matrix
		if auxDim > 0 {
			aux = mat.NewRandn(batch, auxDim, 1, rng)
		}
		dOut := mat.NewRandn(batch, outDim, 1, rng)

		bc := NewBatchCache(net, batch)
		gotOut := net.ForwardBatch(bc, x, aux)
		gBatch := NewGrads(net)
		net.BackwardBatch(bc, dOut, gBatch)

		cache := NewCache(net)
		gSeq := NewGrads(net)
		const tol = 1e-12
		for i := 0; i < batch; i++ {
			var auxRow []float64
			if aux != nil {
				auxRow = aux.Row(i)
			}
			wantOut := net.ForwardCache(cache, x.Row(i), auxRow)
			if j := firstBitsDiff(gotOut.Row(i), wantOut); j >= 0 {
				t.Logf("seed %d: forward row %d differs at %d: %v != %v", seed, i, j, gotOut.Row(i)[j], wantOut[j])
				return false
			}
			net.Backward(cache, dOut.Row(i), gSeq)
		}
		for l := range gBatch.W {
			if maxAbsDiff(gBatch.W[l].Data, gSeq.W[l].Data) > tol {
				t.Logf("seed %d: layer %d weight grads differ", seed, l)
				return false
			}
			if maxAbsDiff(gBatch.B[l], gSeq.B[l]) > tol {
				t.Logf("seed %d: layer %d bias grads differ", seed, l)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{
		MaxCount: 60,
		Rand:     rand.New(rand.NewSource(99)),
	}); err != nil {
		t.Fatal(err)
	}
}

// firstBitsDiff returns the first index where a and b differ in bits, or
// -1.
func firstBitsDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestBatchForwardMatchesPerSampleAtTrainingShapes checks ForwardBatch
// against ForwardCache bit for bit at the shapes training runs at batch
// 64: the DDPG actor (tanh, softmax output), whose batched pass the
// parameter-noise probe takes for per-sample ones, and the msd environment
// model (ReLU, 20-wide layers past the last whole lane panel).
func TestBatchForwardMatchesPerSampleAtTrainingShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nets := []*Network{
		NewNetwork(Config{Sizes: []int{4, 64, 64, 64, 4}, Hidden: Tanh{}, Output: Softmax{}, AuxLayer: -1}, rng),
		NewNetwork(Config{Sizes: []int{8, 20, 20, 20, 4}, Hidden: ReLU{}, Output: Identity{}, AuxLayer: -1}, rng),
	}
	const batch = 64
	for _, net := range nets {
		for _, layer := range net.Layers {
			for i := range layer.B {
				layer.B[i] = 0.1 * rng.NormFloat64()
			}
		}
		x := mat.NewRandn(batch, net.InDim(), 1, rng)
		got := net.ForwardBatch(NewBatchCache(net, batch), x, nil)
		cache := NewCache(net)
		for i := 0; i < batch; i++ {
			want := net.ForwardCache(cache, x.Row(i), nil)
			if j := firstBitsDiff(got.Row(i), want); j >= 0 {
				t.Fatalf("%d-wide input: row %d differs at %d: %v != %v", net.InDim(), i, j, got.Row(i)[j], want[j])
			}
		}
	}
}

// TestBatchCacheReuse checks a reused BatchCache carries no state between
// passes: two identical passes give identical outputs and gradients.
func TestBatchCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(Config{
		Sizes: []int{4, 12, 12, 1}, Hidden: Tanh{}, Output: Identity{},
		AuxLayer: 1, AuxDim: 3,
	}, rng)
	const batch = 5
	x := mat.NewRandn(batch, 4, 1, rng)
	aux := mat.NewRandn(batch, 3, 1, rng)
	dOut := mat.NewRandn(batch, 1, 1, rng)
	bc := NewBatchCache(net, batch)

	out1 := net.ForwardBatch(bc, x, aux).Clone()
	g1 := NewGrads(net)
	net.BackwardBatch(bc, dOut, g1)

	// Pollute the cache with a different pass, then repeat the first.
	net.ForwardBatch(bc, mat.NewRandn(batch, 4, 1, rng), mat.NewRandn(batch, 3, 1, rng))
	net.BackwardBatch(bc, mat.NewRandn(batch, 1, 1, rng), NewGrads(net))

	out2 := net.ForwardBatch(bc, x, aux).Clone()
	g2 := NewGrads(net)
	net.BackwardBatch(bc, dOut, g2)

	if !out1.Equal(out2, 0) {
		t.Fatal("reused cache changed forward output")
	}
	for l := range g1.W {
		if !g1.W[l].Equal(g2.W[l], 0) {
			t.Fatalf("reused cache changed layer %d weight grads", l)
		}
	}
}

// auxGradMismatch runs net forward on (x, aux) through a fresh batch
// cache and describes the first dAux entry where AuxGradBatch differs in
// any bit from the per-sample Backward's dAux, or returns "" when they
// agree everywhere.
func auxGradMismatch(net *Network, x, aux, dOut *mat.Matrix) string {
	c := NewBatchCache(net, x.Rows)
	net.ForwardBatch(c, x, aux)
	got := net.AuxGradBatch(c, dOut)
	ref := NewCache(net)
	for i := 0; i < x.Rows; i++ {
		net.ForwardCache(ref, x.Row(i), aux.Row(i))
		_, want := net.Backward(ref, dOut.Row(i), NewGrads(net))
		for j, v := range got.Row(i) {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				return fmt.Sprintf("dAux sample %d entry %d: AuxGradBatch %v, Backward %v", i, j, v, want[j])
			}
		}
	}
	return ""
}

// TestAuxGradBatchMatchesBackward is the differential referee for the
// aux-only backward pass: on random three-layer networks with the aux input
// at the first, middle and last layer, every output activation and odd
// batch sizes, AuxGradBatch must equal the per-sample Backward's dAux bit
// for bit. It then pins the pass allocation-free on a warm cache at the
// DDPG critic's shape.
func TestAuxGradBatchMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	hiddens := []Activation{Tanh{}, ReLU{}}
	for auxLayer := 0; auxLayer < 3; auxLayer++ {
		for _, out := range []Activation{Tanh{}, ReLU{}, Softmax{}, Identity{}} {
			for _, batch := range []int{1, 3, 7, 33} {
				sizes := []int{1 + rng.Intn(8), 1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(6)}
				auxDim := 1 + rng.Intn(5)
				net := NewNetwork(Config{
					Sizes: sizes, Hidden: hiddens[rng.Intn(2)], Output: out,
					AuxLayer: auxLayer, AuxDim: auxDim,
				}, rng)
				x := mat.NewRandn(batch, sizes[0], 1, rng)
				aux := mat.NewRandn(batch, auxDim, 1, rng)
				dOut := mat.NewRandn(batch, net.OutDim(), 1, rng)
				if msg := auxGradMismatch(net, x, aux, dOut); msg != "" {
					t.Fatalf("sizes %v aux layer %d dim %d, %s output, batch %d: %s",
						sizes, auxLayer, auxDim, out.Name(), batch, msg)
				}
			}
		}
	}

	critic := NewNetwork(Config{
		Sizes: []int{4, 64, 64, 64, 1}, Hidden: Tanh{}, Output: Identity{},
		AuxLayer: 1, AuxDim: 4,
	}, rng)
	const batch = 64
	c := NewBatchCache(critic, batch)
	critic.ForwardBatch(c, mat.NewRandn(batch, 4, 1, rng), mat.NewRandn(batch, 4, 1, rng))
	dOut := mat.New(batch, 1)
	dOut.Fill(1)
	critic.AuxGradBatch(c, dOut)
	if allocs := testing.AllocsPerRun(20, func() { critic.AuxGradBatch(c, dOut) }); allocs != 0 {
		t.Fatalf("AuxGradBatch with a warm cache: %v allocs/run, want 0", allocs)
	}
}

func TestBatchShapePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(Config{Sizes: []int{3, 5, 2}, AuxLayer: -1}, rng)
	bc := NewBatchCache(net, 4)
	for name, fn := range map[string]func(){
		"wrong input cols": func() { net.ForwardBatch(bc, mat.New(4, 2), nil) },
		"wrong batch rows": func() { net.ForwardBatch(bc, mat.New(3, 3), nil) },
		"unexpected aux":   func() { net.ForwardBatch(bc, mat.New(4, 3), mat.New(4, 1)) },
		"wrong dOut":       func() { net.BackwardBatch(bc, mat.New(4, 3), NewGrads(net)) },
		"aux grad, no aux": func() { net.AuxGradBatch(bc, mat.New(4, 2)) },
		"zero batch":       func() { NewBatchCache(net, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
