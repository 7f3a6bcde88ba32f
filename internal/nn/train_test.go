package nn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// trainRegression fits net to the given dataset with Adam for the given
// number of epochs and returns the final mean loss.
func trainRegression(net *Network, xs, ys [][]float64, epochs int, lr float64) float64 {
	opt := NewAdam(net, lr)
	cache := NewCache(net)
	g := NewGrads(net)
	dOut := make([]float64, net.OutDim())
	var last float64
	for e := 0; e < epochs; e++ {
		var total float64
		for i := range xs {
			g.Zero()
			pred := net.ForwardCache(cache, xs[i], nil)
			total += MSE(dOut, pred, ys[i])
			net.Backward(cache, dOut, g)
			opt.Step(g)
		}
		last = total / float64(len(xs))
	}
	return last
}

// TestAdamLearnsLinearFunction: a 1-hidden-layer net must fit y = 2x−1.
func TestAdamLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := NewNetwork(Config{Sizes: []int{1, 16, 1}, Hidden: Tanh{}, AuxLayer: -1}, rng)
	var xs, ys [][]float64
	for i := 0; i < 64; i++ {
		x := rng.Float64()*2 - 1
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{2*x - 1})
	}
	loss := trainRegression(net, xs, ys, 400, 1e-2)
	if loss > 2e-3 {
		t.Fatalf("final loss %g too high for linear target", loss)
	}
}

// TestAdamLearnsNonlinearFunction: fit y = sin(3x) on [−1, 1].
func TestAdamLearnsNonlinearFunction(t *testing.T) {
	if testing.Short() {
		t.Skip("full nonlinear-regression convergence run; skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(22))
	net := NewNetwork(Config{Sizes: []int{1, 32, 32, 1}, Hidden: Tanh{}, AuxLayer: -1}, rng)
	var xs, ys [][]float64
	for i := 0; i < 128; i++ {
		x := rng.Float64()*2 - 1
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{math.Sin(3 * x)})
	}
	loss := trainRegression(net, xs, ys, 300, 3e-3)
	if loss > 5e-3 {
		t.Fatalf("final loss %g too high for sin target", loss)
	}
}

func TestMSEHandComputed(t *testing.T) {
	d := make([]float64, 2)
	loss := MSE(d, []float64{1, 3}, []float64{0, 1})
	// ½·((1² + 2²)/2) = 1.25
	if math.Abs(loss-1.25) > 1e-12 {
		t.Fatalf("MSE=%g, want 1.25", loss)
	}
	if math.Abs(d[0]-0.5) > 1e-12 || math.Abs(d[1]-1.0) > 1e-12 {
		t.Fatalf("MSE grad=%v, want [0.5 1]", d)
	}
}

func TestHuberMatchesMSEInQuadraticRegion(t *testing.T) {
	d1 := make([]float64, 2)
	d2 := make([]float64, 2)
	pred := []float64{0.1, -0.2}
	target := []float64{0, 0}
	l1 := MSE(d1, pred, target)
	l2 := HuberLoss(d2, pred, target, 10)
	if math.Abs(l1-l2) > 1e-12 {
		t.Fatalf("Huber %g != MSE %g inside quadratic region", l2, l1)
	}
}

func TestHuberLinearTails(t *testing.T) {
	d := make([]float64, 1)
	HuberLoss(d, []float64{100}, []float64{0}, 1)
	// Gradient saturates at delta/n = 1.
	if math.Abs(d[0]-1) > 1e-12 {
		t.Fatalf("Huber tail gradient %g, want 1", d[0])
	}
	HuberLoss(d, []float64{-100}, []float64{0}, 1)
	if math.Abs(d[0]+1) > 1e-12 {
		t.Fatalf("Huber tail gradient %g, want -1", d[0])
	}
}

// roundTrip encodes net with its JSON codec and decodes the bytes into a
// fresh Network, the path policy snapshots and checkpoints restore through.
func roundTrip(t *testing.T, net *Network) *Network {
	t.Helper()
	data, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	var out Network
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	net := NewNetwork(Config{
		Sizes: []int{4, 8, 3}, Hidden: ReLU{}, Output: Softmax{},
		AuxLayer: -1,
	}, rng)
	loaded := roundTrip(t, net)
	x := []float64{0.1, 0.2, 0.3, 0.4}
	a, b := net.Forward(x, nil), loaded.Forward(x, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-trip output mismatch at %d: %g vs %g", i, a[i], b[i])
		}
	}
	if loaded.Layers[1].Act.Name() != "softmax" {
		t.Fatalf("activation not preserved: %s", loaded.Layers[1].Act.Name())
	}
}

func TestSaveLoadAuxNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	net := NewNetwork(Config{
		Sizes: []int{4, 8, 8, 1}, Hidden: Tanh{},
		AuxLayer: 1, AuxDim: 3,
	}, rng)
	loaded := roundTrip(t, net)
	if loaded.AuxLayer != 1 || loaded.AuxDim != 3 {
		t.Fatalf("aux metadata lost: layer=%d dim=%d", loaded.AuxLayer, loaded.AuxDim)
	}
	x, aux := []float64{1, 2, 3, 4}, []float64{5, 6, 7}
	a, b := net.Forward(x, aux), loaded.Forward(x, aux)
	if a[0] != b[0] {
		t.Fatalf("aux round-trip mismatch: %g vs %g", a[0], b[0])
	}
}

func TestLoadRejectsCorruptData(t *testing.T) {
	var n Network
	if err := n.UnmarshalJSON([]byte(`{"layers":[{"rows":2,"cols":2,"weights":[1],"bias":[0,0],"activation":"relu"}]}`)); err == nil {
		t.Fatal("expected error for weight length mismatch")
	}
	if err := n.UnmarshalJSON([]byte(`{"layers":[]}`)); err == nil {
		t.Fatal("expected error for empty network")
	}
	if err := n.UnmarshalJSON([]byte(`{"layers":[{"rows":1,"cols":1,"weights":[1],"bias":[0],"activation":"bogus"}]}`)); err == nil {
		t.Fatal("expected error for unknown activation")
	}
}

func TestActivationByNameRoundTrip(t *testing.T) {
	for _, act := range []Activation{ReLU{}, Tanh{}, Identity{}, Sigmoid{}, Softmax{}} {
		got, err := ActivationByName(act.Name())
		if err != nil {
			t.Fatalf("%s: %v", act.Name(), err)
		}
		if got.Name() != act.Name() {
			t.Fatalf("round trip %s -> %s", act.Name(), got.Name())
		}
	}
	if _, err := ActivationByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

// Property: the JSON codec round-trips arbitrary random architectures exactly.
func TestSaveLoadArbitraryArchitectures(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := 2 + rng.Intn(3)
		sizes := make([]int, depth+1)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(12)
		}
		hiddens := []Activation{ReLU{}, Tanh{}, Sigmoid{}}
		outputs := []Activation{Identity{}, Softmax{}}
		cfg := Config{
			Sizes:    sizes,
			Hidden:   hiddens[rng.Intn(len(hiddens))],
			Output:   outputs[rng.Intn(len(outputs))],
			AuxLayer: -1,
		}
		if depth >= 2 && rng.Float64() < 0.5 {
			cfg.AuxLayer = 1
			cfg.AuxDim = 1 + rng.Intn(4)
		}
		net := NewNetwork(cfg, rng)
		loaded := roundTrip(t, net)
		x := make([]float64, net.InDim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		var aux []float64
		if cfg.AuxLayer >= 0 {
			aux = make([]float64, cfg.AuxDim)
			for i := range aux {
				aux[i] = rng.NormFloat64()
			}
		}
		a, b := net.Forward(x, aux), loaded.Forward(x, aux)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAdamStep times one Adam step over a three-hidden-layer actor at
// the benchmark's width (64) and the paper's MSD (256) and LIGO (512)
// widths, the widths gemmBench uses, with a fixed random gradient.
func BenchmarkAdamStep(b *testing.B) {
	for _, width := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("%dwide", width), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			net := NewNetwork(Config{Sizes: []int{4, width, width, width, 4}, Hidden: Tanh{}, Output: Softmax{}, AuxLayer: -1}, rng)
			g := NewGrads(net)
			params := 0
			for l := range g.W {
				for i := range g.W[l].Data {
					g.W[l].Data[i] = rng.NormFloat64()
				}
				for i := range g.B[l] {
					g.B[l][i] = rng.NormFloat64()
				}
				params += len(g.W[l].Data) + len(g.B[l])
			}
			opt := NewAdam(net, 1e-3)
			for b.Loop() {
				opt.Step(g)
			}
			b.ReportMetric(float64(params), "params")
		})
	}
}
