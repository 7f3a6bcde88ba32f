package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAdamStateRoundTrip trains two identical networks, checkpoints one
// optimizer mid-run, restores it into a fresh optimizer, and verifies both
// produce bit-identical parameters afterwards.
func TestAdamStateRoundTrip(t *testing.T) {
	build := func() (*Network, *Adam) {
		rng := rand.New(rand.NewSource(3))
		net := NewNetwork(Config{Sizes: []int{4, 8, 2}, AuxLayer: -1}, rng)
		return net, NewAdam(net, 1e-3)
	}
	netA, optA := build()
	netB, optB := build()

	rng := rand.New(rand.NewSource(9))
	step := func(net *Network, opt *Adam, x []float64) {
		c := NewCache(net)
		net.ForwardCache(c, x, nil)
		g := NewGrads(net)
		dOut := []float64{0.3, -0.7}
		net.Backward(c, dOut, g)
		opt.Step(g)
	}
	inputs := make([][]float64, 20)
	for i := range inputs {
		inputs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	for i := 0; i < 10; i++ {
		step(netA, optA, inputs[i])
		step(netB, optB, inputs[i])
	}

	// Serialize optimizer B's state through JSON (as a checkpoint would) and
	// restore into a brand-new optimizer over the same network.
	blob, err := json.Marshal(optB.State())
	if err != nil {
		t.Fatal(err)
	}
	var st AdamState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	optB2 := NewAdam(netB, 1e-3)
	if err := optB2.SetState(st); err != nil {
		t.Fatal(err)
	}

	for i := 10; i < 20; i++ {
		step(netA, optA, inputs[i])
		step(netB, optB2, inputs[i])
	}
	for l := range netA.Layers {
		for i, v := range netA.Layers[l].W.Data {
			if v != netB.Layers[l].W.Data[i] {
				t.Fatalf("layer %d weight %d diverged after restore: %g != %g",
					l, i, v, netB.Layers[l].W.Data[i])
			}
		}
	}
}

func TestAdamSetStateRejectsBadState(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(Config{Sizes: []int{2, 3, 1}, AuxLayer: -1}, rng)
	opt := NewAdam(net, 1e-3)
	good := opt.State()

	cases := map[string]func(s AdamState) AdamState{
		"negative t":    func(s AdamState) AdamState { s.T = -1; return s },
		"missing layer": func(s AdamState) AdamState { s.MW = s.MW[:1]; return s },
		"short weights": func(s AdamState) AdamState {
			s.VW = append([][]float64(nil), s.VW...)
			s.VW[0] = s.VW[0][:2]
			return s
		},
		"nan moment": func(s AdamState) AdamState {
			s.MW = append([][]float64(nil), s.MW...)
			s.MW[0] = append([]float64(nil), s.MW[0]...)
			s.MW[0][0] = math.NaN()
			return s
		},
		"negative weight second moment": func(s AdamState) AdamState {
			s.VW = append([][]float64(nil), s.VW...)
			s.VW[0] = append([]float64(nil), s.VW[0]...)
			s.VW[0][0] = -1
			return s
		},
		"negative bias second moment": func(s AdamState) AdamState {
			s.VB = append([][]float64(nil), s.VB...)
			s.VB[1] = append([]float64(nil), s.VB[1]...)
			s.VB[1][0] = -math.SmallestNonzeroFloat64
			return s
		},
	}
	for name, mut := range cases {
		if err := opt.SetState(mut(good)); err == nil {
			t.Errorf("%s: SetState accepted corrupt state", name)
		}
	}
	if err := opt.SetState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

func TestCheckFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(Config{Sizes: []int{2, 3, 1}, AuxLayer: -1}, rng)
	if err := net.CheckFinite(); err != nil {
		t.Fatalf("fresh network reported non-finite: %v", err)
	}
	net.Layers[1].W.Data[0] = math.Inf(1)
	if err := net.CheckFinite(); err == nil {
		t.Fatal("Inf weight not detected")
	}
	net.Layers[1].W.Data[0] = 0
	net.Layers[0].B[1] = math.NaN()
	if err := net.CheckFinite(); err == nil {
		t.Fatal("NaN bias not detected")
	}
}

// TestLoadRejectsCorruptNetwork decodes structurally broken networks and
// verifies decoding fails with a clean error instead of returning a
// network that would panic or emit NaN at inference time.
func TestLoadRejectsCorruptNetwork(t *testing.T) {
	cases := map[string]string{
		"no layers":            `{"aux_layer":-1,"layers":[]}`,
		"negative dims":        `{"aux_layer":-1,"layers":[{"rows":-2,"cols":-2,"weights":[1,1,1,1],"bias":[],"activation":"relu"}]}`,
		"interlayer mismatch":  `{"aux_layer":-1,"layers":[{"rows":1,"cols":2,"weights":[1,1],"bias":[0],"activation":"identity"},{"rows":1,"cols":3,"weights":[1,1,1],"bias":[0],"activation":"identity"}]}`,
		"aux out of range":     `{"aux_layer":5,"aux_dim":1,"layers":[{"rows":1,"cols":1,"weights":[1],"bias":[0],"activation":"identity"}]}`,
		"aux dim not positive": `{"aux_layer":0,"aux_dim":0,"layers":[{"rows":1,"cols":1,"weights":[1],"bias":[0],"activation":"identity"}]}`,
		"unknown activation":   `{"aux_layer":-1,"layers":[{"rows":1,"cols":1,"weights":[1],"bias":[0],"activation":"quux"}]}`,
		"inf weight":           `{"aux_layer":-1,"layers":[{"rows":1,"cols":1,"weights":[1e999],"bias":[0],"activation":"identity"}]}`,
	}
	for name, body := range cases {
		var n Network
		if err := json.Unmarshal([]byte(body), &n); err == nil {
			t.Errorf("%s: decode accepted corrupt network", name)
		}
	}
}

// TestAdamSetStateNegativeZeroMoment restores second moments of −0, which
// sqrt maps to −0 like +0, and checks that a zero-gradient Step from them
// leaves every weight finite.
func TestAdamSetStateNegativeZeroMoment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(Config{Sizes: []int{2, 3, 1}, AuxLayer: -1}, rng)
	opt := NewAdam(net, 1e-3)
	s := opt.State()
	negZero := math.Copysign(0, -1)
	for l := range s.VW {
		for i := range s.VW[l] {
			s.VW[l][i] = negZero
		}
		for i := range s.VB[l] {
			s.VB[l][i] = negZero
		}
	}
	if err := opt.SetState(s); err != nil {
		t.Fatalf("second moments of -0 rejected: %v", err)
	}
	opt.Step(NewGrads(net))
	if err := net.CheckFinite(); err != nil {
		t.Fatalf("zero-gradient step from -0 moments: %v", err)
	}
}
